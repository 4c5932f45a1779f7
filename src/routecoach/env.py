"""Multi-agent routing environment on a road graph.

Each agent sees only its own fixed-layout observation vector of length
``2 + 2m`` (m = the graph's max out-degree): its current and destination
junction ids (normalized to [0, 1]), then per edge slot a score,
``-(edge length + dist(end, dest)) / diameter`` (0 if the diameter is 0; -10
if ``dest`` is unreachable from the end, so hopeless-but-real edges are
clearly worst), and the normalized end-junction id.  Slots beyond the
junction's out-degree are padded with score 0 and id -1 and masked out via
the boolean action mask.

An observation depends only on the junction and the destination, so on
first use the environment tabulates, for each agent, the observation at
every junction (``agent_tables``), read-only and shared by every episode.
Agents interact only through the congestion term of the reward, so an
episode is walked one agent at a time and scored afterwards
(``trajectory.run_episode``, ``move_rewards``).

Per-step reward is ``-time_penalty + shaping_coef * (dist(prev, dest) -
dist(curr, dest)) + arrival_bonus * [arrived]``.  The shaping term is
potential-based, so it telescopes to ``shaping_coef * dist(start, dest)``
over any episode that reaches the destination.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import INF, RoadGraph

UNREACHABLE_SCORE = -10.0
PAD_ID = -1.0
# the episode length and reward terms of the module docstring, unless a caller sets them; with
# CONGESTION on, move_rewards scales a move's time penalty by the moves over its edge that step
STEP_LIMIT = 200
TIME_PENALTY = 0.1
SHAPING_COEF = 1.0
ARRIVAL_BONUS = 10.0
CONGESTION = False


class EnvError(ValueError):
    """Invalid agent specification or environment misuse."""


@dataclass(frozen=True)
class AgentSpec:
    agent_id: int
    start: int
    dest: int
    depart_time: int = 0


@dataclass(frozen=True)
class Observation:
    vector: np.ndarray  # shape (2 + 2m,), float64, read-only
    mask: np.ndarray    # shape (m,), bool, read-only


@dataclass(frozen=True)
class EnvState:
    """The joint state after ``step`` steps; its arrays are read-only."""

    step: int
    positions: np.ndarray  # (n_agents,) int
    done: np.ndarray       # (n_agents,) bool
    arrived: np.ndarray    # (n_agents,) bool


@dataclass(frozen=True)
class _Tables:
    """Lookup tables of one environment, built on first use; ``obs`` and ``masks`` are read-only."""

    obs: np.ndarray       # (n_agents, n_nodes, 2 + 2m): the observation at each junction, per agent
    masks: np.ndarray     # (n_nodes, m): the valid slots of each junction
    succ: np.ndarray      # (n_nodes, m): each slot's end junction, 0 on padded slots
    successors: list      # [junction][slot] -> end junction, without padded slots, as Python ints
    degree: np.ndarray    # (n_nodes,) out-degree
    gain: np.ndarray      # (n_dests, n_nodes, m): dist(junction, dest) - dist(slot's end, dest)
    dest_row: np.ndarray  # (n_agents,) each agent's destination's index in ``gain``


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class RouteEnv:
    """Deterministic routing environment for a fixed graph and agent set.

    Training reads its tables and scores walks with ``move_rewards``.  The
    joint-step methods over immutable ``EnvState`` values (``reset``, ``step``,
    ``observe``, ...) are kept for the tests and the benchmark.
    """

    def __init__(
        self,
        graph: RoadGraph,
        specs: Sequence[AgentSpec],
        *,
        step_limit: int = STEP_LIMIT,
        time_penalty: float = TIME_PENALTY,
        shaping_coef: float = SHAPING_COEF,
        arrival_bonus: float = ARRIVAL_BONUS,
        congestion: bool = CONGESTION,
    ):
        self.graph = graph
        self.specs = tuple(specs)
        self.step_limit = int(step_limit)
        self.time_penalty = float(time_penalty)
        self.shaping_coef = float(shaping_coef)
        self.arrival_bonus = float(arrival_bonus)
        self.congestion = bool(congestion)
        self._validate_specs()
        self._dests = np.array([spec.dest for spec in self.specs], dtype=np.int64)
        self._depart = np.array([spec.depart_time for spec in self.specs], dtype=np.int64)

    def _validate_specs(self) -> None:
        for i, spec in enumerate(self.specs):
            if spec.agent_id != i:
                raise EnvError(f"agent specs must be ordered by agent_id; got {spec.agent_id} at index {i}")
            for j in (spec.start, spec.dest):
                if j not in self.graph.nodes:
                    raise EnvError(f"agent {i}: unknown junction {j}")
            if spec.start == spec.dest:
                raise EnvError(f"agent {i}: start equals destination ({spec.start})")
            if spec.depart_time < 0:
                raise EnvError(f"agent {i}: negative depart_time {spec.depart_time}")
            if self.graph.distances_to(spec.dest)[spec.start] == INF:
                raise EnvError(f"agent {i}: destination {spec.dest} unreachable from start {spec.start}")

    @property
    def n_agents(self) -> int:
        return len(self.specs)

    @property
    def obs_dim(self) -> int:
        return 2 + 2 * self.graph.max_out_degree

    @property
    def n_actions(self) -> int:
        return self.graph.max_out_degree

    # -- lookup tables -----------------------------------------------------

    @cached_property
    def _tables(self) -> _Tables:
        """The tables, built on first use; the scores are those of the module docstring."""
        graph = self.graph
        n = graph.node_count
        dst, length = graph.out_arrays
        valid = dst >= 0
        succ = np.where(valid, dst, 0)
        dests, dest_row = np.unique(self._dests, return_inverse=True)
        dist = np.array([[d[j] for j in range(n)] for d in map(graph.distances_to, dests.tolist())])
        remaining = dist[:, succ]
        denom = max(n - 1, 1)
        diameter = graph.diameter
        score = -(length + remaining) / diameter if diameter > 0 else np.zeros_like(remaining)
        score = np.where(valid, np.where(remaining == INF, UNREACHABLE_SCORE, score), 0.0)
        obs = np.empty((len(dests), n, 2 + 2 * graph.max_out_degree))
        obs[:, :, 0] = np.arange(n) / denom
        obs[:, :, 1] = (dests / denom)[:, None]
        obs[:, :, 2::2] = score
        obs[:, :, 3::2] = np.where(valid, dst / denom, PAD_ID)
        with np.errstate(invalid="ignore"):  # inf - inf: both ends cut off from the destination
            gain = dist[:, :, None] - remaining
        degree = valid.sum(axis=1)
        return _Tables(
            obs=_read_only(obs[dest_row]), masks=_read_only(valid), succ=succ,
            successors=[row[:d] for row, d in zip(dst.tolist(), degree.tolist())],
            degree=degree, gain=gain, dest_row=dest_row)

    def agent_tables(self, agent_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(observation table, mask table) of a departed agent, rows by junction.

        Read-only, and shared with every episode of this environment.
        """
        tables = self._tables
        return tables.obs[agent_id], tables.masks

    @property
    def obs_tables(self) -> np.ndarray:
        """(n_agents, n_nodes, 2 + 2m), read-only: every agent's observation table, stacked."""
        return self._tables.obs

    @property
    def mask_table(self) -> np.ndarray:
        """(n_nodes, m), read-only: the valid slots at each junction, the same for every agent."""
        return self._tables.masks

    @property
    def successors(self) -> list[list[int]]:
        """``successors[j][a]``: the junction that slot ``a`` at junction ``j`` leads to; no padded slots.

        Python lists, for walks that step one agent at a time; do not modify.
        """
        return self._tables.successors

    def sitting_out(self, sit_out: Iterable[int]) -> np.ndarray:
        """(n_agents,) bool, True for the agents in ``sit_out``; an id outside ``[0, n_agents)`` raises ``EnvError``."""
        sit_out = list(sit_out)
        for i in sit_out:
            if not 0 <= i < self.n_agents:
                raise EnvError(f"cannot sit out agent {i}: ids run from 0 to {self.n_agents - 1}")
        flags = np.zeros(self.n_agents, dtype=bool)
        flags[sit_out] = True
        return flags

    # -- state machinery ---------------------------------------------------

    def reset(self, sit_out: Iterable[int] = ()) -> EnvState:
        """The initial state; the agents of ``sitting_out(sit_out)`` start done."""
        return EnvState(
            step=0,
            positions=_read_only(np.array([spec.start for spec in self.specs], dtype=np.int64)),
            done=_read_only(self.sitting_out(sit_out)),
            arrived=_read_only(np.zeros(self.n_agents, dtype=bool)),
        )

    def spawned(self, state: EnvState, agent_id: int) -> bool:
        return state.step >= self.specs[agent_id].depart_time

    def acting(self, state: EnvState) -> np.ndarray:
        """Ids of the agents that must supply an action this step, ascending."""
        return np.flatnonzero((state.step >= self._depart) & ~state.done)

    def observe(self, state: EnvState, agent_id: int) -> Observation:
        """One agent's observation: read-only rows of the shared tables."""
        vector, masks = self.agent_tables(agent_id)
        junction = state.positions[agent_id]
        mask = masks[junction] if self.spawned(state, agent_id) else np.zeros_like(masks[junction])
        return Observation(vector=vector[junction], mask=_read_only(mask))

    def step(self, state: EnvState, actions: Sequence[int | None]) -> tuple[EnvState, np.ndarray]:
        """Advance all agents one joint step; the new state and each agent's reward.

        ``actions[i]`` is the outgoing-edge index for agent ``i``; entries
        for done or not-yet-spawned agents are ignored, and their reward is
        0.  Invalid (masked) actions for active agents raise.
        """
        if self.episode_done(state):
            raise EnvError("episode is over; reset before stepping again")
        if len(actions) != self.n_agents:
            raise EnvError(f"expected {self.n_agents} actions, got {len(actions)}")

        tables = self._tables
        movers = self.acting(state)
        src = state.positions[movers]
        chosen = np.asarray(actions)[movers]
        if chosen.dtype == object:
            chosen = np.array([-1 if a is None else a for a in chosen], dtype=np.int64)
        masked = (chosen < 0) | (chosen >= tables.degree[src])
        if masked.any():
            i = movers[masked.argmax()]
            raise EnvError(f"agent {i}: action {actions[i]} is masked at junction {state.positions[i]}")
        dst = tables.succ[src, chosen]
        reward = self.move_rewards(np.full(len(movers), state.step), movers, src, chosen)
        arrive = dst == self._dests[movers]

        positions, done, arrived = state.positions.copy(), state.done.copy(), state.arrived.copy()
        positions[movers] = dst
        done[movers] = arrive | (tables.degree[dst] == 0)  # a dead end: nothing further can happen
        arrived[movers] = arrive
        rewards = np.zeros(self.n_agents)
        rewards[movers] = reward

        return EnvState(
            step=state.step + 1,
            positions=_read_only(positions),
            done=_read_only(done),
            arrived=_read_only(arrived),
        ), rewards

    def move_rewards(self, steps: np.ndarray, agents: np.ndarray, src: np.ndarray,
                     chosen: np.ndarray) -> np.ndarray:
        """The reward of each move: on step ``steps[r]``, agent ``agents[r]`` takes slot ``chosen[r]`` at ``src[r]``.

        Every move must be valid (not masked).  With congestion on, a move's
        time penalty is scaled by the number of moves over the same edge on
        the same step, so the moves given must be all the moves of their steps.
        """
        tables = self._tables
        if self.congestion:
            edge = (steps * len(tables.succ) + src) * self.n_actions + chosen
            _, inverse, counts = np.unique(edge, return_inverse=True, return_counts=True)
            reward = -self.time_penalty * counts[inverse]
        else:
            reward = np.full(len(agents), -self.time_penalty)
        reward = reward + self.shaping_coef * tables.gain[tables.dest_row[agents], src, chosen]
        arrive = tables.succ[src, chosen] == self._dests[agents]
        return np.where(arrive, reward + self.arrival_bonus, reward)

    def episode_done(self, state: EnvState) -> bool:
        return bool(state.done.all()) or state.step >= self.step_limit

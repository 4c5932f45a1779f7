"""Multi-agent routing environment on a road graph.

Agents travel one edge per joint step.  Each agent sees only its own
fixed-layout observation vector of length ``2 + 2m`` (m = the graph's max
out-degree): its current and destination junction ids (normalized to
[0, 1]), then per edge slot a score and the normalized end-junction id.
Slots beyond the junction's out-degree are padded with score 0 and id -1
and masked out via the boolean action mask.

Per-step reward is ``-time_penalty + shaping_coef * (dist(prev, dest) -
dist(curr, dest)) + arrival_bonus * [arrived]``.  The shaping term is
potential-based, so it telescopes to ``shaping_coef * dist(start, dest)``
over any episode that reaches the destination.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import INF, Edge, RoadGraph

UNREACHABLE_SCORE = -10.0
PAD_ID = -1.0


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
    vector: np.ndarray  # shape (2 + 2m,), float64
    mask: np.ndarray    # shape (m,), bool


@dataclass(frozen=True)
class EnvState:
    step: int
    positions: tuple[int, ...]
    done: tuple[bool, ...]
    arrived: tuple[bool, ...]
    seed: int


@dataclass(frozen=True)
class StepResult:
    observations: list[Observation]
    rewards: np.ndarray
    done: np.ndarray
    episode_done: bool


def edge_score(graph: RoadGraph, edge: Edge, dest: int) -> float:
    """Goodness of taking ``edge`` when heading for ``dest``.

    Negative normalized total cost: -(edge length + remaining shortest
    distance from the edge's endpoint) / graph diameter.  Edges from which
    the destination cannot be reached get the sentinel -10; the mask is
    what keeps a policy away from padded slots, the sentinel keeps the
    hopeless-but-real ones clearly worst.
    """
    remaining = graph.distances_to(dest)[edge.dst]
    if remaining == INF:
        return UNREACHABLE_SCORE
    diameter = graph.diameter
    if diameter <= 0:
        return 0.0
    return -(edge.length + remaining) / diameter


class RouteEnv:
    """Deterministic routing environment for a fixed graph and agent set.

    One instance is single-threaded; state is carried in immutable
    ``EnvState`` values, so stepping never mutates shared structure.
    """

    def __init__(
        self,
        graph: RoadGraph,
        specs: Sequence[AgentSpec],
        *,
        step_limit: int = 200,
        time_penalty: float = 0.1,
        shaping_coef: float = 1.0,
        arrival_bonus: float = 10.0,
        congestion: bool = False,
    ):
        self.graph = graph
        self.specs = tuple(specs)
        self.step_limit = int(step_limit)
        self.time_penalty = float(time_penalty)
        self.shaping_coef = float(shaping_coef)
        self.arrival_bonus = float(arrival_bonus)
        self.congestion = bool(congestion)
        self._validate_specs()
        self._dist = {spec.agent_id: graph.distances_to(spec.dest) for spec in self.specs}

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
            if self.graph.shortest_path(spec.start, spec.dest) is None:
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

    # -- state machinery ---------------------------------------------------

    def reset(self, seed: int = 0) -> tuple[EnvState, list[Observation]]:
        state = EnvState(
            step=0,
            positions=tuple(spec.start for spec in self.specs),
            done=tuple(False for _ in self.specs),
            arrived=tuple(False for _ in self.specs),
            seed=int(seed),
        )
        return state, [self.observe(state, i) for i in range(self.n_agents)]

    def spawned(self, state: EnvState, agent_id: int) -> bool:
        return state.step >= self.specs[agent_id].depart_time

    def active(self, state: EnvState, agent_id: int) -> bool:
        """True when the agent must supply an action this step."""
        return self.spawned(state, agent_id) and not state.done[agent_id]

    def observe(self, state: EnvState, agent_id: int) -> Observation:
        spec = self.specs[agent_id]
        m = self.graph.max_out_degree
        denom = max(self.graph.node_count - 1, 1)
        vector = np.zeros(2 + 2 * m)
        mask = np.zeros(m, dtype=bool)
        junction = state.positions[agent_id]
        vector[0] = junction / denom
        vector[1] = spec.dest / denom
        out = self.graph.out_edges(junction)
        for i in range(m):
            if i < len(out):
                vector[2 + 2 * i] = edge_score(self.graph, out[i], spec.dest)
                vector[2 + 2 * i + 1] = out[i].dst / denom
            else:
                vector[2 + 2 * i] = 0.0
                vector[2 + 2 * i + 1] = PAD_ID
        if self.spawned(state, agent_id):
            mask[: len(out)] = True
        return Observation(vector=vector, mask=mask)

    def step(self, state: EnvState, actions: Sequence[int | None]) -> tuple[EnvState, StepResult]:
        """Advance all agents one joint step.

        ``actions[i]`` is the outgoing-edge index for agent ``i``; entries
        for done or not-yet-spawned agents are ignored.  Invalid (masked)
        actions for active agents raise.
        """
        if self.episode_done(state):
            raise EnvError("episode is over; reset before stepping again")
        if len(actions) != self.n_agents:
            raise EnvError(f"expected {self.n_agents} actions, got {len(actions)}")

        moves: list[Edge | None] = [None] * self.n_agents
        for i, spec in enumerate(self.specs):
            if not self.active(state, i):
                continue
            out = self.graph.out_edges(state.positions[i])
            action = actions[i]
            if action is None or not (0 <= action < len(out)):
                raise EnvError(f"agent {i}: action {action} is masked at junction {state.positions[i]}")
            moves[i] = out[action]

        traffic: dict[tuple[int, int], int] = {}
        if self.congestion:
            for mv in moves:
                if mv is not None:
                    key = (mv.src, mv.dst)
                    traffic[key] = traffic.get(key, 0) + 1

        positions = list(state.positions)
        done = list(state.done)
        arrived = list(state.arrived)
        rewards = np.zeros(self.n_agents)
        for i, spec in enumerate(self.specs):
            mv = moves[i]
            if mv is None:
                continue
            dist = self._dist[i]
            reward = -self.time_penalty
            if self.congestion:
                reward = -self.time_penalty * traffic[(mv.src, mv.dst)]
            reward += self.shaping_coef * (dist[mv.src] - dist[mv.dst])
            positions[i] = mv.dst
            if mv.dst == spec.dest:
                reward += self.arrival_bonus
                done[i] = True
                arrived[i] = True
            elif not self.graph.out_edges(mv.dst):
                done[i] = True  # dead end: nothing further can happen
            rewards[i] = reward

        new_state = EnvState(
            step=state.step + 1,
            positions=tuple(positions),
            done=tuple(done),
            arrived=tuple(arrived),
            seed=state.seed,
        )
        result = StepResult(
            observations=[self.observe(new_state, i) for i in range(self.n_agents)],
            rewards=rewards,
            done=np.array(done),
            episode_done=self.episode_done(new_state),
        )
        return new_state, result

    def episode_done(self, state: EnvState) -> bool:
        return all(state.done) or state.step >= self.step_limit

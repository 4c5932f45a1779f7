"""Trajectory records for both data sources, the episode loop, and DTW.

A trajectory is tagged with its source: ``"a"`` for actions sampled from
the agent's own policy, ``"e"`` for actions compiled from an expert
route and replayed in the environment.  Both are recorded by
the same loop, ``run_episode``; they differ only in where an agent's
action comes from.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Collection

import numpy as np

from .env import Observation, RouteEnv
from .graph import RoadGraph

AGENT_SOURCE = "a"
EXPERT_SOURCE = "e"


@dataclass(frozen=True)
class Transition:
    obs: Observation
    action: int
    reward: float
    log_prob_behavior: float


@dataclass
class Trajectory:
    """Ordered transitions plus the observation after the last one.

    ``junction_path`` is the visited junction sequence, one longer than the
    transition list.  ``terminated`` distinguishes a true terminal (arrival
    or dead end, no future reward) from truncation at the step limit.
    """

    source: str
    agent_id: int
    transitions: list[Transition]
    terminal_obs: Observation
    junction_path: list[int]
    arrived: bool = False
    terminated: bool = False

    def __post_init__(self) -> None:
        if self.source not in (AGENT_SOURCE, EXPERT_SOURCE):
            raise ValueError(f"unknown trajectory source {self.source!r}")
        if len(self.junction_path) != len(self.transitions) + 1:
            raise ValueError(
                f"junction_path has {len(self.junction_path)} entries for "
                f"{len(self.transitions)} transitions"
            )

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def episode_reward(self) -> float:
        return float(sum(t.reward for t in self.transitions))

    def rewards(self) -> np.ndarray:
        return np.array([t.reward for t in self.transitions])

    def actions(self) -> np.ndarray:
        return np.array([t.action for t in self.transitions], dtype=int)

    def log_probs_behavior(self) -> np.ndarray:
        return np.array([t.log_prob_behavior for t in self.transitions])

    def obs_matrix(self) -> np.ndarray:
        return np.stack([t.obs.vector for t in self.transitions])

    def mask_matrix(self) -> np.ndarray:
        return np.stack([t.obs.mask for t in self.transitions])


def run_episode(
    env: RouteEnv,
    choose: Callable[[int, Observation], tuple[int, float]],
    *,
    source: str = AGENT_SOURCE,
    sit_out: Collection[int] = (),
) -> list[Trajectory]:
    """Drive one joint-step episode from the initial state; one trajectory per agent.

    ``choose(i, obs)`` returns the action of agent ``i``, given only its
    own observation, and the log-probability to record for it; it is asked
    once per step for every agent that must act.  Agents in ``sit_out`` are
    done from the start: they never act or count as traffic, and keep a
    single-point trajectory.  The episode ends when every agent is done or
    the step limit is reached; steps where nobody may act yet (agents
    waiting on their depart times) still let time pass.
    """
    state, observations = env.reset()
    state = replace(state, done=tuple(d or i in sit_out for i, d in enumerate(state.done)))
    trajectories = [Trajectory(source, spec.agent_id, [], observations[i], [spec.start])
                    for i, spec in enumerate(env.specs)]
    while not env.episode_done(state):
        actions: list[int | None] = [None] * env.n_agents
        logps: dict[int, float] = {}
        for i in range(env.n_agents):
            if env.active(state, i):
                actions[i], logps[i] = choose(i, observations[i])
        state, result = env.step(state, actions)
        for i, logp in logps.items():
            traj = trajectories[i]
            traj.transitions.append(Transition(observations[i], actions[i], float(result.rewards[i]), logp))
            traj.junction_path.append(state.positions[i])
            traj.terminal_obs = result.observations[i]
            if state.done[i]:
                traj.arrived, traj.terminated = state.arrived[i], True
        observations = result.observations
    return trajectories


def traj_to_feature_seq(traj: Trajectory, graph: RoadGraph) -> np.ndarray:
    """Map the visited junctions to their planar coordinates, shape (L, 2)."""
    coords = []
    for j in traj.junction_path:
        if j not in graph.nodes:
            raise KeyError(f"junction {j} not in graph")
        coords.append(graph.nodes[j])
    return np.array(coords)


def dtw_distance(seq_a: np.ndarray, seq_b: np.ndarray) -> float:
    """Dynamic-time-warping distance between two coordinate sequences.

    Classic full-window dynamic program with Euclidean local cost, summed
    (not averaged) along the optimal monotone alignment.  Symmetric,
    non-negative, and zero exactly for identical sequences.
    """
    a = np.atleast_2d(np.asarray(seq_a, dtype=float))
    b = np.atleast_2d(np.asarray(seq_b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw_distance requires non-empty sequences")
    # local cost matrix: cost[i, j] = ||a_i - b_j||
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    acc[0, 0] = cost[0, 0]
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        for j in range(1, m):
            acc[i, j] = cost[i, j] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[n - 1, m - 1])

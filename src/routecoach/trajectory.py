"""Trajectory records, the episode loop, and DTW.

Every trajectory is recorded by the same loop, ``run_episode``, whether
its actions are sampled from the agent's own policy (``training.rollout``)
or compiled from a demonstrated route and replayed (``demos``).  A
trajectory is arrays, one entry per step the agent acted; its observations
are rows of the environment's shared tables, gathered when an update asks
for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Collection

import numpy as np

from .env import RouteEnv
from .graph import RoadGraph

# (acting agents, their junctions) -> their actions, see run_episode
JointChooser = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(eq=False)
class Trajectory:
    """One agent's steps, as arrays, plus the tables its observations come from.

    ``actions`` and ``rewards`` have one entry per step; ``junction_path``,
    the visited junctions, is one longer.  The observation at a junction is
    that row of ``obs_table`` (and ``mask_table`` for the action mask), the
    agent's destination's tables from the environment.  ``terminated``
    distinguishes a true terminal (arrival or dead end, no future reward)
    from truncation at the step limit.  ``logps``, the behaviour
    log-probability of each action, is set by ``training.rollout``; a
    replayed route has none.
    """

    agent_id: int
    junction_path: np.ndarray  # (L + 1,) int
    actions: np.ndarray        # (L,) int
    rewards: np.ndarray        # (L,)
    obs_table: np.ndarray      # (n_nodes, 2 + 2m)
    mask_table: np.ndarray     # (n_nodes, m) bool
    arrived: bool = False
    terminated: bool = False
    logps: np.ndarray | None = None  # (L,)

    def __post_init__(self) -> None:
        steps = len(self.actions)
        if len(self.junction_path) != steps + 1:
            raise ValueError(f"junction_path has {len(self.junction_path)} entries for {steps} actions")
        if len(self.rewards) != steps or (self.logps is not None and len(self.logps) != steps):
            raise ValueError(f"rewards or log-probs do not match the {steps} actions")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def episode_reward(self) -> float:
        return float(sum(self.rewards.tolist()))

    def obs_matrix(self) -> np.ndarray:
        """The observation before each action, one row per step."""
        return self.obs_table[self.junction_path[:-1]]

    def mask_matrix(self) -> np.ndarray:
        return self.mask_table[self.junction_path[:-1]]

    def terminal_obs(self) -> np.ndarray:
        """The observation vector after the last step (or at the start, if none)."""
        return self.obs_table[self.junction_path[-1]]


def run_episode(
    env: RouteEnv,
    choose: JointChooser,
    *,
    sit_out: Collection[int] = (),
) -> list[Trajectory]:
    """Drive one joint-step episode from the initial state; one trajectory per agent.

    ``choose(agents, junctions)`` is asked once per step in which anyone
    must act.  ``agents`` are the ids of those agents, ascending, and
    ``junctions`` the junction each one stands at; an agent's observation
    and mask there are that row of its ``env.agent_tables``.  It returns
    one action per entry of ``agents``; each agent's action may depend only
    on its own observation.  Agents in ``sit_out`` are done from the start:
    they never act or count as traffic, and keep a single-point trajectory.
    The episode ends when every agent is done or the step limit is reached;
    steps where nobody may act yet (agents waiting on their depart times)
    still let time pass.  The trajectories carry no log-probabilities.
    """
    state = env.reset(sit_out)
    n, limit = env.n_agents, env.step_limit
    path = np.empty((n, limit + 1), dtype=np.int64)
    actions = np.zeros((n, limit), dtype=np.int64)
    rewards = np.zeros((n, limit))
    acted = np.zeros((n, limit), dtype=bool)
    path[:, 0] = state.positions
    while not env.episode_done(state):
        t = state.step
        agents = env.acting(state)
        if agents.size:
            actions[agents, t] = choose(agents, state.positions[agents])
            acted[agents, t] = True
        state, rewards[:, t] = env.step(state, actions[:, t])
        path[:, t + 1] = state.positions
    # an agent acts on consecutive steps, from its departure until it is done
    first, steps = acted.argmax(axis=1), acted.sum(axis=1)
    trajectories = []
    for i in range(n):
        lo, hi = first[i], first[i] + steps[i]
        trajectories.append(Trajectory(
            i, path[i, lo:hi + 1], actions[i, lo:hi], rewards[i, lo:hi],
            *env.agent_tables(i), arrived=bool(state.arrived[i]), terminated=bool(state.done[i] and hi > lo)))
    return trajectories


def traj_to_feature_seq(traj: Trajectory, graph: RoadGraph) -> np.ndarray:
    """Map the visited junctions to their planar coordinates, shape (L, 2)."""
    coords = []
    for j in traj.junction_path.tolist():
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
    cost = np.sqrt((diff * diff).sum(axis=2)).tolist()
    # the accumulated cost, one row at a time over Python floats
    prev = list(accumulate(cost[0]))
    for row in cost[1:]:
        left = prev[0] + row[0]
        acc = [left]
        for c, up, diag in zip(row[1:], prev[1:], prev):
            left = c + min(up, left, diag)
            acc.append(left)
        prev = acc
    return prev[-1]

"""Trajectory records, the episode driver, and DTW.

Every trajectory is recorded by the same driver, ``run_episode``, whether
its actions are sampled from the agent's own policy (``training.rollout``)
or compiled from a demonstrated route and replayed (``demos``).  An
agent's action depends only on its own observation, which depends only on
its junction and destination, so no agent's path depends on another's:
the driver walks each agent's episode on its own, then scores every move
of every agent in one call, where the congestion term couples them.  A
trajectory is arrays, one entry per step the agent acted; its
observations are rows of the environment's shared tables, gathered when
an update asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable

import numpy as np

from .env import EnvError, RouteEnv
from .graph import RoadGraph

# (agent id, its junction) -> its action there, see run_episode
Chooser = Callable[[int, int], int]


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
    choose: Chooser,
    *,
    sit_out: Iterable[int] = (),
) -> list[Trajectory]:
    """Play one episode from the initial state; one trajectory per agent.

    Each agent is walked on its own, from its depart time until it arrives,
    reaches a dead end, or the step limit is reached.  ``choose(agent,
    junction)`` is asked once per step of the walk for that agent's action;
    its observation and mask there are that row of its ``env.agent_tables``,
    and the action may depend on nothing else.  A masked action raises
    ``EnvError``, as ``env.step`` does.  Agents in ``sit_out`` (ids in
    ``[0, n_agents)``, checked by ``env.sitting_out``) never act or count as
    traffic, and keep a single-point trajectory.  After the walks, every
    move is scored by one ``env.move_rewards`` call, so the trajectories are
    those of stepping all agents together with ``env.step``.  They carry no
    log-probabilities.
    """
    sitting_out = env.sitting_out(sit_out)
    successors, limit = env.successors, env.step_limit
    paths, ends = [], []
    steps, movers, src, chosen = [], [], [], []
    for i, spec in enumerate(env.specs):
        j = spec.start
        path, terminated = [j], False
        for t in range(limit if sitting_out[i] else spec.depart_time, limit):
            a = choose(i, j)
            out = successors[j]
            if not 0 <= a < len(out):
                raise EnvError(f"agent {i}: action {a} is masked at junction {j}")
            steps.append(t)
            src.append(j)
            chosen.append(a)
            j = out[a]
            path.append(j)
            if j == spec.dest or not successors[j]:  # arrived, or a dead end
                terminated = True
                break
        movers += [i] * (len(path) - 1)
        paths.append(path)
        ends.append((j == spec.dest, terminated))
    steps, movers, src, actions = (np.array(v, dtype=np.int64) for v in (steps, movers, src, chosen))
    rewards = env.move_rewards(steps, movers, src, actions)
    trajectories, lo = [], 0
    for i, (path, (arrived, terminated)) in enumerate(zip(paths, ends)):
        hi = lo + len(path) - 1
        trajectories.append(Trajectory(i, np.array(path, dtype=np.int64), actions[lo:hi], rewards[lo:hi],
                                       *env.agent_tables(i), arrived=arrived, terminated=terminated))
        lo = hi
    return trajectories


def traj_to_feature_seq(traj: Trajectory, graph: RoadGraph) -> np.ndarray:
    """Map the visited junctions to their planar coordinates, shape (L, 2): rows of ``graph.coords``."""
    path = traj.junction_path
    unknown = (path < 0) | (path >= graph.node_count)
    if unknown.any():
        raise KeyError(f"junction {path[unknown][0]} not in graph")
    return graph.coords[path]


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
            # min(up, left, diag), the first smallest, without a call per cell
            low = left if left < up else up
            left = c + (diag if diag < low else low)
            acc.append(left)
        prev = acc
    return prev[-1]

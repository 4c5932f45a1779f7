"""Decentralized multi-agent route learning with expert-demonstration mixing."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller set one: the networks are small, and a
# second thread only spins against other work on the host.  This applies only
# if numpy is not loaded yet, so a caller who imports numpy first keeps the
# thread count numpy started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .env import AgentSpec, EnvState, Observation, RouteEnv, edge_score
from .fixtures import grid_graph, hilly_graph, line_graph, write_graph
from .graph import Edge, GraphError, RoadGraph, load_graph
from .losses import (
    alpha_weight,
    advantages,
    bootstrapped_returns,
    clipped_surrogate,
    mixed_policy_objective,
    standardize,
    total_policy_objective,
    value_loss,
)
from .trajectory import Trajectory, dtw_distance, traj_to_feature_seq
from .training import TrainConfig, Trainer, evaluate, generate_agent_specs, policy_table, rollout

__all__ = [
    "AgentSpec", "EnvState", "Observation", "RouteEnv", "edge_score",
    "grid_graph", "hilly_graph", "line_graph", "write_graph",
    "Edge", "GraphError", "RoadGraph", "load_graph",
    "alpha_weight", "advantages", "bootstrapped_returns", "clipped_surrogate",
    "mixed_policy_objective", "standardize", "total_policy_objective", "value_loss",
    "Trajectory", "dtw_distance", "traj_to_feature_seq",
    "TrainConfig", "Trainer", "evaluate", "generate_agent_specs", "policy_table", "rollout",
]

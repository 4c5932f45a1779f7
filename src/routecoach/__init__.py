"""Decentralized multi-agent route learning with expert-demonstration mixing."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller set one: the networks are small, and a
# second thread only spins against other work on the host.  This applies only
# if numpy is not loaded yet, so a caller who imports numpy first keeps the
# thread count numpy started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# On glibc, fix malloc's mmap threshold at the 32 MiB its dynamic threshold climbs
# to on 64-bit, and its trim threshold at twice that (glibc's own ratio).  Left to
# move, they give each epoch's large temporaries back to the OS, to be faulted in
# again next epoch.  A caller who tuned malloc through glibc's variables keeps it.
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
if os.name == "posix" and not any(v in os.environ for v in _MALLOC_VARS) \
        and "glibc.malloc." not in os.environ.get("GLIBC_TUNABLES", ""):
    import ctypes  # numpy loads it too

    _libc = ctypes.CDLL(None)
    if hasattr(_libc, "gnu_get_libc_version"):  # glibc only
        _libc.mallopt.argtypes, _libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

from .env import AgentSpec, RouteEnv
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
    "AgentSpec", "RouteEnv",
    "grid_graph", "hilly_graph", "line_graph", "write_graph",
    "Edge", "GraphError", "RoadGraph", "load_graph",
    "alpha_weight", "advantages", "bootstrapped_returns", "clipped_surrogate",
    "mixed_policy_objective", "standardize", "total_policy_objective", "value_loss",
    "Trajectory", "dtw_distance", "traj_to_feature_seq",
    "TrainConfig", "Trainer", "evaluate", "generate_agent_specs", "policy_table", "rollout",
]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecoach import AgentSpec, grid_graph
from routecoach.trajectory import Trajectory, dtw_distance, traj_to_feature_seq
from reference import dtw_bruteforce


def _traj(path, steps=None, logps=None):
    steps = len(path) - 1 if steps is None else steps
    return Trajectory(agent_id=0, junction_path=np.array(path),
                      actions=np.zeros(steps, dtype=int), rewards=np.zeros(steps),
                      obs_table=np.zeros((100, 4)), mask_table=np.ones((100, 1), dtype=bool),
                      logps=logps)


def test_identical_sequences_zero():
    seq = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    assert dtw_distance(seq, seq) == 0.0


def test_single_points():
    assert dtw_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_known_small_case():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # oracle-computed: the best alignment pays only for the extra point
    assert dtw_distance(a, b) == pytest.approx(1.0)
    assert dtw_bruteforce(a, b) == pytest.approx(1.0)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        dtw_distance(np.zeros((0, 2)), np.array([[0.0, 0.0]]))


def test_matches_bruteforce_random(rng):
    for _ in range(60):
        a = rng.integers(0, 9, size=(rng.integers(1, 9), 2)).astype(float)
        b = rng.integers(0, 9, size=(rng.integers(1, 9), 2)).astype(float)
        assert dtw_distance(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-9)


def dtw_numpy_scalars(a, b):
    """The dynamic program over a numpy accumulated-cost matrix, cell by cell."""
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


def test_matches_numpy_scalar_dp_bit_for_bit():
    rng = np.random.default_rng(17)
    for trial in range(500):
        shape_a = (1, 2) if trial < 20 else (rng.integers(1, 30), 2)  # length-1 sequences first
        a = rng.normal(scale=5.0, size=shape_a)
        b = rng.normal(scale=5.0, size=(rng.integers(1, 30), 2))
        if trial % 3 == 0:  # grid coordinates, where ties and zero costs are common
            a, b = np.round(a), np.round(b)
        for x, y in ((a, b), (b, a)):
            got, want = np.float64(dtw_distance(x, y)), np.float64(dtw_numpy_scalars(x, y))
            assert got.view(np.uint64) == want.view(np.uint64)


coords = st.tuples(st.integers(0, 8), st.integers(0, 8))
seqs = st.lists(coords, min_size=1, max_size=8).map(lambda s: np.array(s, dtype=float))


@settings(max_examples=60, deadline=None)
@given(seqs, seqs)
def test_symmetry_and_nonnegativity(a, b):
    d_ab = dtw_distance(a, b)
    d_ba = dtw_distance(b, a)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(d_ba, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seqs)
def test_self_distance_zero(a):
    assert dtw_distance(a, a) == 0.0


def test_feature_seq_maps_coordinates():
    g = grid_graph(3)
    traj = _traj([0, 1, 2])
    feats = traj_to_feature_seq(traj, g)
    np.testing.assert_allclose(feats, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_feature_seq_single_point():
    g = grid_graph(3)
    feats = traj_to_feature_seq(_traj([4]), g)
    assert feats.shape == (1, 2)


def test_feature_seq_unknown_junction():
    g = grid_graph(3)
    with pytest.raises(KeyError, match="99"):
        traj_to_feature_seq(_traj([0, 99]), g)
    for junction in (9, -1):
        with pytest.raises(KeyError, match=f"junction {junction} "):
            traj_to_feature_seq(_traj([0, junction]), g)


def test_trajectory_invariants():
    with pytest.raises(ValueError, match="junction_path"):
        _traj([0, 1], steps=0)
    with pytest.raises(ValueError, match="log-probs"):
        _traj([0, 1], logps=np.zeros(2))
    assert _traj([0, 1]).logps is None

"""Pinned ``metrics.csv`` digests for three small fixed training runs.

The rerun tests elsewhere only check that two runs agree with each other;
these check that a run still produces the bytes it produced before a
refactor.  A change that alters the arithmetic of the rollout, the demo
path or the update changes a digest here.  The digests depend on IEEE
double arithmetic in numpy's matmul/tanh/exp; on a platform whose BLAS
sums differently they must be recorded again, from an unchanged tree.
"""
import hashlib

import pytest

from routecoach import AgentSpec, grid_graph
from routecoach.training import TrainConfig, Trainer

# sha256 of metrics.csv, recorded before the fused per-agent update
PINNED = {
    "dynamic-oracle": "6155b46d9d02d8753e1ba6fbf53eca73acfd55f74bc7e4467bd53627ffc86b43",
    "logit-ppo": "dff8bff3f2bf2f2b963346dd35fce3358fd8a47efed751bb45fe7c65f04458f3",
    "mock-llm": "21217fee12d41fcc99034a5f764fdf91cb1fdff31130cae9c2574a634dec6d77",
}

MOCK_REPLIES = (
    '{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6], "2": [6, 7, 8]}',  # all valid
    '{"0": [0, 3, 6, 7, 8], "1": [2, 6], "2": [6, 4, 8]}',            # two invalid
    "no routes today",                                                # unparsable
    "{'0': [0, 1, 4, 7, 8], 1: [2, 5, 4, 3, 6], '2': [6, 3, 4, 5, 8]}",
)


def _train(tmp_path, config, graph, specs=None) -> str:
    out = tmp_path / "run"
    Trainer(config, graph, specs).train(out_dir=out)
    return hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()


def _run(name, tmp_path) -> str:
    if name == "dynamic-oracle":
        config = TrainConfig(n_agents=4, epochs=8, steps_per_episode=40, demo_interval=3,
                             expert_provider="oracle", mode="dynamic", seed=11)
        return _train(tmp_path, config, grid_graph(4))
    if name == "logit-ppo":
        config = TrainConfig(n_agents=4, epochs=8, steps_per_episode=40, demo_interval=2,
                             mode="logit-ppo", seed=5)
        return _train(tmp_path, config, grid_graph(4))
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    for i, text in enumerate(MOCK_REPLIES):
        (mock_dir / f"{i:03d}.txt").write_text(text)
    config = TrainConfig(n_agents=3, epochs=10, steps_per_episode=30, demo_interval=2,
                         expert_provider="llm", mock_dir=str(mock_dir), mode="dynamic", seed=2)
    specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6), AgentSpec(2, 6, 8))
    return _train(tmp_path, config, grid_graph(3), specs)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_metrics_csv_matches_pin(name, tmp_path):
    assert _run(name, tmp_path) == PINNED[name]

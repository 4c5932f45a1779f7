"""Pinned output digests for small fixed training, evaluation and report runs.

The rerun tests elsewhere only check that two runs agree with each other;
these check that a run still produces the bytes it produced before a
refactor.  A change that alters the arithmetic of the rollout, the demo
path or the update changes a digest here.  The digests depend on IEEE
double arithmetic in numpy's matmul/tanh/exp; on a platform whose BLAS
sums differently they must be recorded again, from an unchanged tree.
"""
import csv
import hashlib
import json

import numpy as np
import pytest

from routecoach import AgentSpec, generate_agent_specs, grid_graph, write_graph
from routecoach.cli import main
from routecoach.training import TrainConfig, Trainer, update_agent
from routecoach.trajectory import Trajectory
from conftest import openblas_core

# sha256 of metrics.csv; the first three recorded before the fused per-agent
# update, "mock-llm-skip-congestion" before the shared episode loop, "crowd-congestion"
# before the array-backed rollout
PINNED = {
    "crowd-congestion": "50342171a25ddb6e90137ff7d35888c71e604ac6a8b5fbc18769282f2954865a",
    "dynamic-oracle": "6155b46d9d02d8753e1ba6fbf53eca73acfd55f74bc7e4467bd53627ffc86b43",
    "logit-ppo": "dff8bff3f2bf2f2b963346dd35fce3358fd8a47efed751bb45fe7c65f04458f3",
    "mock-llm": "21217fee12d41fcc99034a5f764fdf91cb1fdff31130cae9c2574a634dec6d77",
    "mock-llm-skip-congestion": "dd730d56a01962776b566d6814753ca4c0589c1d431cbf8b39e5c92922027f44",
}

# sha256 of files written by the command line, recorded before the shared
# episode loop
PINNED_CLI = {
    "eval.csv": "0d86b8867eeeff2081fc0d6cd6ac252f1b4c55f536f632f086e302031dd004be",
    "demo_report.csv-oracle": "47ccd5fe4c5113456e0d9c58d553dc044fa6aba0034e3d482730884834f5f275",
    "demo_report.csv-mock": "677a7d41873b76d102ae36e9cd4e1dad23b5e5be84fc9c800a5461a0b6de0c91",
    # recorded while sweep-agents and ablation trained without run directories
    "ablation.csv": "a577c47d53ebdc1b0f8a1770ae4416a63ac7132101086a6079dfd30e632dd60a",
    "sweep.csv-rewards": "4f2f859e7a2c92c98161c1876998b802aa0a766ce8f659c26cf5281e3584f113",
}

MOCK_REPLIES = (
    '{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6], "2": [6, 7, 8]}',  # all valid
    '{"0": [0, 3, 6, 7, 8], "1": [2, 6], "2": [6, 4, 8]}',            # two invalid
    "no routes today",                                                # unparsable
    "{'0': [0, 1, 4, 7, 8], 1: [2, 5, 4, 3, 6], '2': [6, 3, 4, 5, 8]}",
)

# agent 1 waits three steps before it departs; agents 0 and 2 can meet on 7 -> 8
WAITING_SPECS = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6, depart_time=3), AgentSpec(2, 6, 8))

# twelve agents crossing a 4x4 grid in opposing pairs, two of them departing late
CROWD_SPECS = (
    AgentSpec(0, 0, 15), AgentSpec(1, 15, 0), AgentSpec(2, 3, 12), AgentSpec(3, 12, 3),
    AgentSpec(4, 5, 10), AgentSpec(5, 10, 5, depart_time=2), AgentSpec(6, 1, 14),
    AgentSpec(7, 14, 1), AgentSpec(8, 4, 7), AgentSpec(9, 7, 4, depart_time=5),
    AgentSpec(10, 2, 13), AgentSpec(11, 8, 11),
)


def _pin_failure(pin: str) -> str:
    """The message of a digest that differs from the pin ``pin``: which BLAS kernels computed it."""
    return (f"{pin}: the digest differs from its pin, computed with OpenBLAS's {openblas_core()} kernels; "
            "the pins hold only with SkylakeX (see the README)")


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mock_dir(tmp_path):
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    for i, text in enumerate(MOCK_REPLIES):
        (mock_dir / f"{i:03d}.txt").write_text(text)
    return mock_dir


def _train(tmp_path, config, graph, specs=None) -> str:
    """The digest of ``metrics.csv`` from training ``config`` on ``specs``, or on tasks drawn from its seed."""
    out = tmp_path / "run"
    if specs is None:
        specs = generate_agent_specs(graph, config.n_agents, config.seed)
    Trainer(config, graph, specs).train(out_dir=out)
    return _digest(out / "metrics.csv")


def _run(name, tmp_path) -> str:
    if name == "dynamic-oracle":
        config = TrainConfig(n_agents=4, epochs=8, steps_per_episode=40, demo_interval=3,
                             expert_provider="oracle", mode="dynamic", seed=11)
        return _train(tmp_path, config, grid_graph(4))
    if name == "logit-ppo":
        config = TrainConfig(n_agents=4, epochs=8, steps_per_episode=40, demo_interval=2,
                             mode="logit-ppo", seed=5)
        return _train(tmp_path, config, grid_graph(4))
    if name == "crowd-congestion":
        config = TrainConfig(n_agents=12, epochs=4, steps_per_episode=40, demo_interval=2,
                             expert_provider="oracle", mode="dynamic", seed=13, congestion=True)
        return _train(tmp_path, config, grid_graph(4), CROWD_SPECS)
    mock_dir = _mock_dir(tmp_path)
    if name == "mock-llm":
        config = TrainConfig(n_agents=3, epochs=10, steps_per_episode=30, demo_interval=2,
                             expert_provider="llm", mock_dir=str(mock_dir), mode="dynamic", seed=2)
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6), AgentSpec(2, 6, 8))
        return _train(tmp_path, config, grid_graph(3), specs)
    # invalid proposals sit out instead of falling back to the oracle
    config = TrainConfig(n_agents=3, epochs=10, steps_per_episode=30, demo_interval=2,
                         expert_provider="llm", mock_dir=str(mock_dir), mode="dynamic", seed=2,
                         invalid_route_fallback="skip", congestion=True)
    return _train(tmp_path, config, grid_graph(3), WAITING_SPECS)


def _cli_aggregate(name, tmp_path) -> str:
    """``ablation.csv``, or the rows of ``sweep.csv`` as JSON, on generated tasks."""
    graph = str(write_graph(grid_graph(3), tmp_path / "grid3.json"))
    out = tmp_path / "out"
    args = ["--graph", graph, "--out", str(out), "--seeds", "0,1", "--set", "epochs=3",
            "--set", "n_agents=2", "--set", "steps_per_episode=20"]
    if name == "ablation.csv":
        assert main(["ablation", *args]) == 0
        return _digest(out / "ablation.csv")
    assert main(["sweep-agents", *args, "--counts", "1,2"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = [row[:3] for row in csv.reader(fh)]  # the columns the pin was recorded over
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _cli_run(name, tmp_path) -> str:
    if name in ("ablation.csv", "sweep.csv-rewards"):
        return _cli_aggregate(name, tmp_path)
    doc = {
        "graph": str(write_graph(grid_graph(3), tmp_path / "grid3.json")),
        "n_agents": 3,
        "agents": [[s.start, s.dest, s.depart_time] for s in WAITING_SPECS],
        "epochs": 6,
        "steps_per_episode": 30,
        "demo_interval": 2,
        "seed": 4,
        "congestion": True,
        "invalid_route_fallback": "skip",
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if name == "eval.csv":
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["evaluate", "--run", str(out), "--episodes", "3"]) == 0
        return _digest(out / "eval.csv")
    provider = name.rsplit("-", 1)[1]
    args = ["demo-report", "--config", str(config), "--out", str(out),
            "--phases", "2", "--prompts", "3", "--provider", provider]
    if provider == "mock":
        args += ["--mock-dir", str(_mock_dir(tmp_path))]
    assert main(args) == 0
    return _digest(out / "demo_report.csv")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_metrics_csv_matches_pin(name, tmp_path):
    assert _run(name, tmp_path) == PINNED[name], _pin_failure(name)


@pytest.mark.parametrize("name", sorted(PINNED_CLI))
def test_cli_output_matches_pin(name, tmp_path):
    assert _cli_run(name, tmp_path) == PINNED_CLI[name], _pin_failure(name)


# -- one update round on hand-built trajectories ---------------------------------------------
#
# The metrics pins above see the update only through training runs, whose batch
# lengths they do not choose.  These cases feed the update batches of 1, 2, 9, 10
# and 50 steps, the row counts around BLAS's matrix-vector and small-matrix
# kernels, and pin the bytes of every network and the reported losses.

UPDATE_LENGTHS = (1, 2, 9, 10, 50)

# sha256 over every agent's policy, value_a and value_e bytes and its stats, recorded
# when the update ran one agent per call
PINNED_UPDATE = {
    "expert": "13314c3d9d52d2c8789404ad441e851de69e553019ddf7bf08c8c7a8f2b8b3dc",
    "mixed-expert": "d9b11d0f21593677733737207b8c4414e3fe33ecb7173c6daa88cd48b5b11556",
    "ippo": "cb4a0d702dea35d7c0ebb812e2c61141f28e13c5c6df347349b74d3acd40ae15",
}


def _hand_trajectory(env, agent_id, length, rng, terminated, behaviour=True):
    """``length`` steps between random live junctions, valid random actions, random rewards.

    With ``behaviour``, random behaviour log-probabilities as a rollout has; without, none,
    as a replayed demonstration has.
    """
    obs_table, mask_table = env.agent_tables(agent_id)
    path = rng.choice(np.flatnonzero(mask_table.any(axis=1)), size=length + 1)
    actions = np.array([rng.choice(np.flatnonzero(mask_table[j])) for j in path[:-1]], dtype=np.int64)
    return Trajectory(agent_id, path, actions, rng.normal(size=length), obs_table, mask_table,
                      terminated=terminated,
                      logps=np.log(rng.uniform(0.2, 0.6, size=length)) if behaviour else None)


def update_case(name):
    """(learners, agent trajectories, expert trajectories, config) of one pinned update case.

    "mixed-expert" gives agents 0 and 2 no demonstration and agent 4 an empty one.
    """
    rng = np.random.default_rng(2024)
    n = len(UPDATE_LENGTHS)
    specs = tuple(AgentSpec(i, i, 15 - i) for i in range(n))
    config = TrainConfig(n_agents=n, epochs=4, steps_per_episode=60, update_epochs=2, seed=7,
                         mode="ippo" if name == "ippo" else "dynamic")
    trainer = Trainer(config, grid_graph(4), specs)
    for learner, alpha in zip(trainer.learners, (0.25, 1.0, 0.5, 0.9, 0.01)):
        learner.alpha = alpha
        # non-zero final layers, so that every layer's gradient is non-zero from the first pass
        for net in (learner.policy, learner.value_a, learner.value_e):
            net.weights[-1][...] = rng.normal(scale=0.3, size=net.weights[-1].shape)
    env = trainer.env
    tau_a = [_hand_trajectory(env, i, length, rng, terminated=i % 2 == 0)
             for i, length in enumerate(UPDATE_LENGTHS)]
    tau_e = [_hand_trajectory(env, i, length, rng, terminated=i % 2 == 1, behaviour=False)
             for i, length in enumerate(reversed(UPDATE_LENGTHS))]
    if name == "mixed-expert":
        tau_e[0] = tau_e[2] = None
        tau_e[4] = _hand_trajectory(env, 4, 0, rng, terminated=False, behaviour=False)
    return trainer.learners, tau_a, tau_e, config


def update_digest(learners, stats) -> str:
    digest = hashlib.sha256()
    for learner, agent_stats in zip(learners, stats):
        for net in (learner.policy, learner.value_a, learner.value_e):
            digest.update(net.data.tobytes())
        digest.update(repr(sorted(agent_stats.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_UPDATE))
def test_update_matches_pin(name):
    learners, tau_a, tau_e, config = update_case(name)
    stats = update_agent(learners, tau_a, tau_e, 1, config)
    assert update_digest(learners, stats) == PINNED_UPDATE[name], _pin_failure(name)


# -- an A6-style loop that evaluates after every epoch ------------------------------------------
#
# The metrics pins never call ``Trainer.evaluate``; this one also pins the greedy
# evaluation of the parameters each epoch leaves, as the A6 fixture and the benchmark's
# a6 workload read them.

A6_SPECS = (AgentSpec(0, 0, 24), AgentSpec(1, 4, 20), AgentSpec(2, 24, 0))

# sha256 over metrics.csv, then the repr of every epoch's per-agent evaluation
# (as a list, so every digit of each float counts), recorded before the trainer
# kept a policy table per parameter version
PINNED_EVAL_LOOP = {
    "dynamic": "d8dcf0f5d2994b7072bd8dd97e9dc0508e6a6543fb0401aac46741e487b78539",
    "ippo": "83d008709a78c8d285a7d5d8e8706c20dd0ccc24e44e97be48924760a3599354",
}


@pytest.mark.parametrize("mode", sorted(PINNED_EVAL_LOOP))
def test_evaluated_loop_matches_pin(mode, tmp_path):
    config = TrainConfig(n_agents=3, epochs=40, steps_per_episode=100, mode=mode,
                         expert_provider="none" if mode == "ippo" else "oracle", seed=0)
    trainer = Trainer(config, grid_graph(5), A6_SPECS)
    evals = []
    trainer.train(out_dir=tmp_path,
                  on_epoch=lambda _: evals.append(repr(trainer.evaluate(1).per_agent.tolist())))
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes())
    for line in evals:
        digest.update(line.encode())
    assert len(evals) == config.epochs
    assert digest.hexdigest() == PINNED_EVAL_LOOP[mode], _pin_failure(mode)

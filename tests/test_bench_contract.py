"""The library names the benchmark under ``bench/`` calls and traces still exist."""
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from routecoach import AgentSpec, TrainConfig, Trainer, grid_graph, policy_table, rollout  # noqa: E402


def _bindings() -> dict:
    """Every attribute of the package's modules and of the traced classes, by (owner, name)."""
    owners = [m for n, m in sys.modules.items() if n == "routecoach" or n.startswith("routecoach.")]
    owners += [owner for _, owner, _, _ in tracing.FUNCTIONS if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_patches_every_traced_name_and_restores_it():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, owner, attr, _ in tracing.FUNCTIONS:
            assert vars(owner)[attr] is not before[(id(owner), attr)], f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


@pytest.mark.parametrize("name", ["a6-grid5", "refine-mockllm-grid10"])
def test_make_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, 0, tmp_path)
    assert len(inputs.specs) == len(inputs.seeds) == workload.task_sets
    if workload.evaluate_each_epoch:
        # the oracle demonstrations' mean return, from execute_demos(...).values()
        assert np.isfinite(inputs.oracle_return) and inputs.oracle_return > 0
    if workload.mock_llm:
        assert len(inputs.mock_dirs) == workload.task_sets
        assert all(len(list(d.iterdir())) == workload.config["epochs"] for d in inputs.mock_dirs)


def test_traced_epoch_records_the_a6_target_spans():
    """A rename that hides the update from the tracer would make a traced a6 run fail.

    The epoch and the evaluation each walk their episode through ``training.rollout``,
    so the rollout spans and the transitions count cover both.
    """
    config = TrainConfig(n_agents=2, epochs=2, steps_per_episode=20, seed=1)
    trainer = Trainer(config, grid_graph(3), (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trainer.run_epoch()
        trainer.evaluate(1)
    finally:
        tracer.uninstall()
    calls = tracer.table().calls
    assert [name for name in workloads.WORKLOADS["a6-grid5"].target_spans if calls[name] == 0] == []
    # one update call per epoch; per pass, one Adam step per policy and per batch's value head
    assert calls["training.update_agent"] == 1
    assert calls["nets.adam_step"] == config.update_epochs * 2 * 3
    rollout_parents = Counter(tracer.names[tracer.name_ids[tracer.parents[i]]]
                              for i, name_id in enumerate(tracer.name_ids)
                              if tracer.names[name_id] == "training.rollout")
    assert rollout_parents == {"training.run_epoch": 1, "training.evaluate": 1}
    policies = [ln.policy for ln in trainer.learners]
    greedy_steps = sum(len(t) for t in rollout(trainer.env, policy_table(trainer.env, policies), None, greedy=True))
    assert greedy_steps > 0
    assert tracer.counts["transitions"] == sum(len(ln.last_agent) for ln in trainer.learners) + greedy_steps

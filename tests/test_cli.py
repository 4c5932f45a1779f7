import csv
import json
import shutil
import weakref

import numpy as np
import pytest

from routecoach import AgentSpec, RouteEnv, cli, grid_graph, write_graph
from routecoach.cli import demo_quality_report, main, moving_average
from routecoach.llm import LlmError
from routecoach.training import MAX_AGENTS, MAX_EVAL_EPISODES, TrainConfig, Trainer, config_hash


@pytest.fixture()
def graph_file(tmp_path):
    return str(write_graph(grid_graph(3), tmp_path / "grid3.json"))


@pytest.fixture()
def base_config(tmp_path, graph_file):
    doc = {
        "graph": graph_file,
        "n_agents": 2,
        "agents": [[0, 8, 0], [2, 6, 0]],
        "epochs": 4,
        "steps_per_episode": 30,
        "demo_interval": 2,
        "expert_provider": "oracle",
        "mode": "dynamic",
        "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def train_calls(monkeypatch):
    """(n_agents, seed) of every training run, in order."""
    calls = []
    train = Trainer.train

    def counted(self, *args, **kwargs):
        calls.append((self.config.n_agents, self.config.seed))
        return train(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "train", counted)
    return calls


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def two_junctions(scale, length=None):
    """A graph file document: junctions at (0, 0) and (scale, scale), joined both ways by edges
    of length ``length``, ``scale`` by default."""
    length = scale if length is None else length
    return {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": scale, "y": scale}],
            "edges": [{"from": 0, "to": 1, "length": length}, {"from": 1, "to": 0, "length": length}]}


class TestTrain:
    def test_writes_expected_artifacts(self, tmp_path, base_config):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 4
        assert manifest["agents"] == [[0, 8, 0], [2, 6, 0]]
        rows = read_csv(out / "metrics.csv")
        assert rows[0][0] == "epoch"
        assert len(rows) == 5
        assert (out / "checkpoints" / "agent000_policy.npz").exists()
        assert (out / "timing.csv").exists()

    def test_mode_and_seed_flags_override(self, tmp_path, base_config):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out),
                     "--mode", "ippo", "--seed", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "ippo"
        assert manifest["config"]["expert_provider"] == "none"
        assert manifest["config"]["seed"] == 7

    def test_fixed_alpha_mode(self, tmp_path, base_config):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out),
                     "--mode", "fixed-alpha:0.5"]) == 0
        rows = read_csv(out / "metrics.csv")
        alpha_col = rows[0].index("alpha_mean")
        assert all(row[alpha_col] == "0.5" for row in rows[1:])

    def test_missing_graph_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--graph", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, graph_file, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"graph": graph_file, "mode": "wat"}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["provider_fallback=orcale", "invalid_route_fallback=orcale"])
    def test_bad_fallback_exits_2_without_run_dir(self, tmp_path, base_config, capsys, setting):
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8]}')
        out = tmp_path / "run"
        code = main(["train", "--config", base_config, "--out", str(out), "--provider", "llm",
                     "--mock-dir", str(mock_dir), "--set", setting])
        assert code == 2
        assert "error: bad configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--set", "entropy_beta=0"], ["--set", "gamma=1.5"], ["--set", "clip_epsilon=1.0"],
        ["--set", "n_agents=0"], ["--set", "epochs=0"], ["--set", "steps_per_episode=0"],
        ["--set", "update_epochs=0"], ["--set", "learning_rate=-1"], ["--set", "checkpoint_every=-1"],
        ["--mode", "logit-ppo", "--set", "logit_temperature=0"],
        ["--set", "eval_episodes=0"], ["--set", "time_penalty=NaN"], ["--set", "shaping_coef=Infinity"],
        ["--set", "arrival_bonus=-Infinity"], ["--set", "learning_rate=Infinity"],
        ["--set", "llm_temperature=-1"],
        ["--set", "epochs=2.5"], ["--set", "update_epochs=1.5"], ["--set", "steps_per_episode=7.9"],
        ["--set", "congestion=no"], ["--set", "congestion=1"], ["--set", "seed=true"], ["--set", "n_agents=2.0"],
        ["--set", "mode=5"], ["--set", "gamma=true"], ["--set", "learning_rate=true"],
        ["--set", "logit_temperature=Infinity"], ["--provider", "llm", "--set", "mock_dir=5"],
        ["--set", "learning_rate=1" + "0" * 400],
        pytest.param(["--set", f"n_agents={MAX_AGENTS + 1}"], id="n_agents_above_bound"),
        pytest.param(["--set", "time_penalty=1e200"], id="returns_that_square_past_the_largest_float"),
    ])
    def test_out_of_range_value_exits_2_without_run_dir(self, tmp_path, base_config, capsys, flags):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "error: bad configuration" in err and flags[-1].split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--graph", "grid3.json", "--set", "foo"], "--set expects key=value, got 'foo'"),
        ([], "no graph file configured"),
        (["--config", "missing.json"], "config file not found: missing.json"),
        (["--graph", "grid3.json", "--set", "expert_provider=foo"], "bad configuration: unknown expert provider 'foo'"),
        (["--graph", "grid3.json", "--set", "mode=fixed-alpha:abc"],
         "bad configuration: fixed alpha must be in (0, 1]: 'fixed-alpha:abc'"),
        (["--graph", "grid3.json", "--agents", "2", "--set", "agents=[[0,8]]"],
         "bad configuration: 1 tasks for n_agents=2"),
    ], ids=["set-without-equals", "no-graph", "missing-config", "unknown-provider", "fixed-alpha-not-a-number",
            "task-count"])
    def test_unusable_input_exits_2_without_run_dir(self, tmp_path, graph_file, monkeypatch, capsys,
                                                    flags, message):
        monkeypatch.chdir(tmp_path)  # where graph_file is grid3.json
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_negative_seed_exits_2_without_run_dir(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out), "--seed", "-1"]) == 2
        assert "error: bad configuration: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["learning_rat=0.5", "foo.bar=1"])
    def test_unknown_set_key_exits_2_without_run_dir(self, tmp_path, base_config, capsys, setting):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert "error: bad configuration" in err and setting.split("=")[0] in err
        assert not out.exists()

    def test_unknown_key_in_config_file_exits_2_without_run_dir(self, tmp_path, base_config, capsys):
        doc = json.loads(open(base_config).read())
        doc["learning_rat"] = 0.5
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "learning_rat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "demo-report"])
    @pytest.mark.parametrize("entry", [[0], {"start": 0}, {"start": 0, "dest": 8}, ["a", 8], [0, 99], [0, 8, -1],
                                       [0, 8, 0, 7], "08", [0.7, 8], [0, 8.0], [True, 8], ["0", 8], [0, 8, 1.5]])
    def test_malformed_agent_entry_exits_2_without_run_dir(self, tmp_path, base_config, capsys,
                                                            command, entry):
        doc = json.loads(open(base_config).read())
        doc.update(n_agents=1, agents=[entry])
        cfg = tmp_path / "agents.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "demo-report"])
    @pytest.mark.parametrize("agents", [5, "0 8", {"0": [0, 8]}])
    def test_agents_not_a_list_exits_2_without_run_dir(self, tmp_path, base_config, capsys,
                                                        command, agents):
        doc = json.loads(open(base_config).read())
        doc.update(n_agents=1, agents=agents)
        cfg = tmp_path / "agents.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: 'agents' must be a list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("graph", [
        {"nodes": [{"id": 0, "x": 0, "y": 0}], "edges": None},
        {"nodes": 5, "edges": []},
        {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1.7, "x": 1, "y": 0}], "edges": []},
        two_junctions(1e200),  # the summed length squares past the largest float
        two_junctions(1e308),
        two_junctions(1.3e154, length=1),  # each span squares finitely, their sum (DTW's cost) does not
        two_junctions(10**400, length=1),  # integers that no float holds
        two_junctions(1, length=10**400),
        [],
        {"nodes": [{"id": 0, "x": 0, "y": 0}], "edges": [{"from": 99, "to": 0, "length": 1}]},
    ])
    def test_graph_file_of_other_json_types_exits_2_without_run_dir(self, tmp_path, capsys, graph):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        out = tmp_path / "run"
        assert main(["train", "--graph", str(path), "--out", str(out), "--set", "n_agents=1"]) == 2
        assert f"error: graph file {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_graph_with_a_junction_cut_off_from_the_destination_trains(self, tmp_path):
        """0 <-> 1 <-> 2 plus a one-way spur 0 -> 3: a move into 3 has a finite reward."""
        doc = two_junctions(1)
        doc["nodes"] += [{"id": 2, "x": 2, "y": 0}, {"id": 3, "x": 0, "y": 1}]
        doc["edges"] += [{"from": 1, "to": 2, "length": 1}, {"from": 2, "to": 1, "length": 1},
                         {"from": 0, "to": 3, "length": 1}]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["train", "--graph", str(path), "--out", str(out), "--set", "n_agents=1",
                     "--set", "agents=[[0, 2]]", "--epochs", "5", "--set", "steps_per_episode=10"]) == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 6 and all(np.isfinite(float(v)) for row in rows[1:] for v in row)

    def test_graph_of_large_scale_with_finite_squares_trains(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(two_junctions(1e150)))
        out = tmp_path / "run"
        assert main(["train", "--graph", str(path), "--out", str(out), "--set", "n_agents=1",
                     "--set", "epochs=3", "--set", "steps_per_episode=5"]) == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 4 and all(np.isfinite(float(v)) for row in rows[1:] for v in row)

    @pytest.mark.parametrize("command", [["train"], ["sweep-agents", "--counts", "1"], ["demo-report"]])
    def test_graph_without_a_task_exits_2_without_out_dir(self, tmp_path, capsys, command):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}], "edges": []}))
        out = tmp_path / "run"
        assert main([*command, "--graph", str(path), "--out", str(out), "--set", "n_agents=1"]) == 2
        assert "error: could not draw a routable task for agent 0" in capsys.readouterr().err
        assert not out.exists()

    def test_drawn_tasks_are_checked_in_the_runs_own_environment(self, tmp_path, graph_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--graph", graph_file, "--out", str(out), "--set", "n_agents=2",
                     "--set", "steps_per_episode=20", "--set", "time_penalty=1e200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad configuration: ") and "time_penalty" in err
        assert not out.exists()

    def test_set_overrides_dotted(self, tmp_path, base_config):
        out = tmp_path / "run"
        assert main(["train", "--config", base_config, "--out", str(out),
                     "--set", "entropy_beta=0.02", "--set", "epochs=2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["entropy_beta"] == 0.02
        assert manifest["config"]["epochs"] == 2

    def test_determinism_byte_identical(self, tmp_path, base_config):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", base_config, "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


def _edit_json(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_npz(path, edit) -> None:
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(path, **arrays)


# how each checkpoint file is spoiled, and what the error names
CHECKPOINT_FAULTS = {
    "manifest-not-json": ("checkpoint_manifest.json", lambda p: p.write_text("{not json"), "is not valid JSON"),
    "manifest-without-config-hash": ("checkpoint_manifest.json",
                                     lambda p: _edit_json(p, lambda doc: doc.pop("config_hash")), "lacks config_hash"),
    "npz-missing": ("agent001_policy.npz", lambda p: p.unlink(), "FileNotFoundError"),
    "npz-truncated": ("agent000_value_a.npz", lambda p: p.write_bytes(p.read_bytes()[:200]), "BadZipFile"),
    "npz-empty": ("agent001_value_e.npz", lambda p: p.write_bytes(b""), "EOFError"),
    "npz-version-2": ("agent000_policy.npz", lambda p: _edit_npz(p, lambda a: a.update(version=np.array(2))),
                      "unsupported checkpoint version 2"),
    "manifest-agent-count-a-float": ("checkpoint_manifest.json", lambda p: _edit_json(p, lambda doc: doc.update(
        n_agents=2.0)), "n_agents must be an integer, got 2.0"),
    "manifest-config-hash-not-a-string": ("checkpoint_manifest.json", lambda p: _edit_json(p, lambda doc: doc.update(
        config_hash=5)), "config_hash must be a string, got 5"),
    "npz-value-head-as-policy": ("agent000_policy.npz",
                                 lambda p: shutil.copyfile(p.with_name("agent000_value_a.npz"), p),
                                 "w2 has shape (128, 1), where the network takes (128, 4)"),
    "npz-w0-one-dimensional": ("agent001_value_a.npz", lambda p: _edit_npz(p, lambda a: a.update(w0=a["w0"].ravel())),
                               "w0 has shape (1280,), where the network takes (10, 128)"),
    "npz-version-a-list": ("agent000_value_e.npz", lambda p: _edit_npz(p, lambda a: a.update(version=np.array([1, 1]))),
                           "unsupported checkpoint version [1, 1]"),
    "npz-w0-of-eleven-rows": ("agent001_policy.npz", lambda p: _edit_npz(p, lambda a: a.update(
        w0=np.vstack([a["w0"], a["w0"][:1]]))), "w0 has shape (11, 128), where the network takes (10, 128)"),
}


class TestEvaluate:
    def test_runs_on_finished_training(self, tmp_path, base_config):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        assert main(["evaluate", "--run", str(out), "--episodes", "5"]) == 0
        rows = read_csv(out / "eval.csv")
        assert rows[0] == ["episode", "mean_reward"]
        assert len(rows) == 6

    def test_builds_one_environment(self, tmp_path, base_config, monkeypatch):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        built = []
        original = RouteEnv.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RouteEnv, "__init__", counting)
        assert main(["evaluate", "--run", str(out)]) == 0
        assert len(built) == 1

    def test_hash_mismatch_rejected(self, tmp_path, base_config):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config_hash"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2

    def test_config_edited_after_training_rejected(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        trained = manifest["config_hash"]
        manifest["config"].update(time_penalty=5.0, steps_per_episode=1)
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2
        edited = config_hash(TrainConfig.from_dict(manifest["config"]))
        err = capsys.readouterr().err
        assert edited in err and trained in err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("episodes", ["0", "-3", "10000000000000"])
    def test_episodes_out_of_range_exit_2(self, tmp_path, base_config, capsys, episodes):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        assert main(["evaluate", "--run", str(out), "--episodes", episodes]) == 2
        bound = ">= 1" if int(episodes) < 1 else f"<= {MAX_EVAL_EPISODES}"
        assert f"error: bad configuration: eval_episodes must be {bound}" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    def test_graph_edited_after_training_rejected(self, tmp_path, base_config, graph_file, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        doc = json.loads(open(graph_file).read())
        doc["edges"][0]["length"] *= 2
        with open(graph_file, "w") as fh:
            json.dump(doc, fh)
        assert main(["evaluate", "--run", str(out)]) == 2
        assert "sha256" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    def test_manifest_agent_the_graph_cannot_hold_exits_2(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["agents"][0] = [0, 99, 0]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert "unknown junction 99" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
    ])
    def test_unreadable_manifest_exits_2(self, tmp_path, base_config, capsys, text, message):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        (out / "manifest.json").write_text(text)
        assert main(["evaluate", "--run", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("key", ["config", "config_hash", "graph_file", "graph_sha256", "agents"])
    def test_manifest_without_a_key_exits_2(self, tmp_path, base_config, capsys, key):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert f"lacks {key}" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ({"learning_rat": 0.5}, "error: bad configuration: unknown config keys: ['learning_rat']"),
        ([1, 2], "'config' must be a JSON object"),
    ])
    def test_manifest_config_not_a_train_config_exits_2(self, tmp_path, base_config, capsys,
                                                         config, message):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"] = {**manifest["config"], **config} if isinstance(config, dict) else config
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("count", [1, 3])
    def test_checkpoint_agent_count_differing_from_manifest_exits_2(self, tmp_path, base_config, capsys, count):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        _edit_json(out / "checkpoints" / "checkpoint_manifest.json", lambda doc: doc.update(n_agents=count))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert f"error: checkpoint holds {count} agents but the run manifest lists 2" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("count", [True, 1.0])
    def test_checkpoint_agent_count_of_another_type_exits_2(self, tmp_path, base_config, capsys, count):
        # both equal 1 in Python, so a one-agent run shows that the type is checked
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out), "--set", "n_agents=1", "--set", "agents=[[0, 8]]"])
        _edit_json(out / "checkpoints" / "checkpoint_manifest.json", lambda doc: doc.update(n_agents=count))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert f"n_agents must be an integer, got {count!r}" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
    def test_unreadable_checkpoint_exits_2(self, tmp_path, base_config, capsys, fault):
        name, spoil, message = CHECKPOINT_FAULTS[fault]
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        spoil(out / "checkpoints" / name)
        assert main(["evaluate", "--run", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and name in err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("value", [5, ["grid3.json"]])
    def test_manifest_graph_file_not_a_string_exits_2(self, tmp_path, base_config, capsys, value):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        _edit_json(out / "manifest.json", lambda doc: doc.update(graph_file=value))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert f"error: the graph file must be given as a path string, got {value!r}" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    def test_directory_without_manifest_exits_2(self, tmp_path, capsys):
        assert main(["evaluate", "--run", str(tmp_path)]) == 2
        assert f"error: run manifest not found: {tmp_path / 'manifest.json'}" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    def test_checkpoint_of_another_config_exits_2(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        _edit_json(out / "checkpoints" / "checkpoint_manifest.json", lambda doc: doc.update(config_hash="0" * 64))
        assert main(["evaluate", "--run", str(out)]) == 2
        assert "error: checkpoint was produced by a different configuration" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    def test_run_without_checkpoints_exits_2(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        shutil.rmtree(out / "checkpoints")
        assert main(["evaluate", "--run", str(out)]) == 2
        assert "no checkpoint" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()


class TestSweep:
    def test_rows_per_count_and_dedupe(self, tmp_path, graph_file, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-agents", "--graph", graph_file, "--out", str(out),
                     "--counts", "1,2,2", "--seeds", "0",
                     "--set", "epochs=2", "--set", "steps_per_episode=20"])
        assert code == 0
        assert "duplicate" in capsys.readouterr().err
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["n_agents", "reward_mean", "reward_std"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        assert sorted(p.name for p in out.iterdir()) == ["n1", "n2", "sweep.csv"]
        manifest = json.loads((out / "n2" / "seed0" / "manifest.json").read_text())
        assert manifest["command"] == "sweep-agents" and manifest["config"]["n_agents"] == 2
        assert main(["evaluate", "--run", str(out / "n2" / "seed0")]) == 0

    def test_two_identical_runs_write_the_same_bytes(self, tmp_path, graph_file):
        """``sweep.csv`` holds no wall clock; each run's ``timing.csv`` has it."""
        for out in ("a", "b"):
            assert main(["sweep-agents", "--graph", graph_file, "--out", str(tmp_path / out),
                         "--counts", "1,2", "--set", "epochs=2", "--set", "steps_per_episode=20"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
        assert read_csv(tmp_path / "a" / "n2" / "seed0" / "timing.csv")[0] == ["epoch", "seconds"]

    def test_each_run_draws_its_tasks_once(self, tmp_path, graph_file, monkeypatch):
        calls = []
        generate = cli.generate_agent_specs

        def counted(graph, n_agents, seed):
            calls.append((n_agents, seed))
            return generate(graph, n_agents, seed)

        monkeypatch.setattr(cli, "generate_agent_specs", counted)
        assert main(["sweep-agents", "--graph", graph_file, "--out", str(tmp_path / "sweep"),
                     "--counts", "1,2", "--seeds", "0,1",
                     "--set", "epochs=1", "--set", "steps_per_episode=20"]) == 0
        assert calls == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_repeated_seed_trains_once(self, tmp_path, graph_file, capsys, train_calls):
        out = tmp_path / "sweep"
        assert main(["sweep-agents", "--graph", graph_file, "--out", str(out), "--counts", "1",
                     "--seeds", "0,0", "--set", "epochs=2", "--set", "steps_per_episode=20"]) == 0
        assert "warning: duplicate values in '0,0' ignored" in capsys.readouterr().err
        assert train_calls == [(1, 0)]
        assert len(read_csv(out / "sweep.csv")) == 2

    def test_one_trainer_alive_at_a_time(self, tmp_path, graph_file, monkeypatch):
        """Each run's numbers are taken when it ends, and its trainer is gone before the next is built."""
        refs, alive = [], []
        init = Trainer.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
            alive.append(sum(ref() is not None for ref in refs))

        monkeypatch.setattr(Trainer, "__init__", tracked)
        assert main(["sweep-agents", "--graph", graph_file, "--out", str(tmp_path / "sweep"),
                     "--counts", "2,3", "--seeds", "0,1",
                     "--set", "epochs=2", "--set", "steps_per_episode=20"]) == 0
        assert alive == [1, 1, 1, 1]

    @pytest.mark.parametrize("flags", [["--counts", ","], ["--counts", "1", "--seeds", ","]])
    def test_empty_list_exits_2_without_out_dir(self, tmp_path, graph_file, capsys, flags):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-agents", "--graph", graph_file, "--out", str(out), *flags])
        assert exc.value.code == 2
        assert f"argument {flags[-2]}: expected a comma-separated list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--counts", "2,0"], "n_agents must be >= 1"),
        (["--counts", "1,2", "--seeds", "0,-1"], "seed must be >= 0"),
    ])
    def test_bad_later_run_exits_2_without_out_dir(self, tmp_path, graph_file, capsys, flags, message):
        out = tmp_path / "sweep"
        assert main(["sweep-agents", "--graph", graph_file, "--out", str(out), *flags,
                     "--set", "epochs=1", "--set", "steps_per_episode=20"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["eval_episodes=0", "time_penalty=NaN"])
    def test_bad_value_exits_2_without_out_dir(self, tmp_path, graph_file, capsys, setting):
        out = tmp_path / "sweep"
        assert main(["sweep-agents", "--graph", graph_file, "--out", str(out), "--counts", "1",
                     "--set", "epochs=1", "--set", "steps_per_episode=20", "--set", setting]) == 2
        assert f"error: bad configuration: {setting.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_listed_agents_exit_2_without_out_dir(self, tmp_path, base_config, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-agents", "--config", base_config, "--out", str(out),
                     "--counts", "1,2"]) == 2
        assert "'agents' must be null" in capsys.readouterr().err
        assert not out.exists()


class TestAblation:
    def test_merged_csv_with_fixed_variant_order(self, tmp_path, graph_file):
        out = tmp_path / "ablation"
        code = main(["ablation", "--graph", graph_file, "--out", str(out),
                     "--seeds", "0,1", "--set", "epochs=3",
                     "--set", "steps_per_episode=20", "--set", "n_agents=2",
                     "--set", "demo_interval=2"])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["epoch", "dynamic", "fixed_alpha_0_2", "fixed_alpha_0_5",
                           "logit_ppo", "ippo"]
        assert len(rows) == 4

    def test_runs_train_the_config_agents_like_train(self, tmp_path, base_config):
        out = tmp_path / "ablation"
        assert main(["ablation", "--config", base_config, "--out", str(out), "--seeds", "0"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "ablation.csv", "dynamic", "fixed_alpha_0_2", "fixed_alpha_0_5", "ippo", "logit_ppo"]
        run = out / "dynamic" / "seed0"
        assert json.loads((run / "manifest.json").read_text())["agents"] == [[0, 8, 0], [2, 6, 0]]
        single = tmp_path / "train"
        assert main(["train", "--config", base_config, "--out", str(single),
                     "--set", "mode=dynamic", "--set", "seed=0"]) == 0
        assert (run / "metrics.csv").read_bytes() == (single / "metrics.csv").read_bytes()
        assert main(["evaluate", "--run", str(out / "ippo" / "seed0")]) == 0

    def test_repeated_seed_trains_once(self, tmp_path, graph_file, capsys, train_calls):
        out = tmp_path / "ablation"
        assert main(["ablation", "--graph", graph_file, "--out", str(out), "--seeds", "0,0",
                     "--set", "epochs=2", "--set", "steps_per_episode=20", "--set", "n_agents=2"]) == 0
        assert "warning: duplicate values in '0,0' ignored" in capsys.readouterr().err
        assert train_calls == [(2, 0)] * 5

    def test_empty_seeds_exit_2_without_out_dir(self, tmp_path, graph_file, capsys):
        out = tmp_path / "ablation"
        with pytest.raises(SystemExit) as exc:
            main(["ablation", "--graph", graph_file, "--out", str(out), "--seeds", ","])
        assert exc.value.code == 2
        assert "argument --seeds: expected a comma-separated list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,-1"])
    def test_negative_seed_exits_2_without_out_dir(self, tmp_path, graph_file, capsys, seeds):
        out = tmp_path / "ablation"
        assert main(["ablation", "--graph", graph_file, "--out", str(out), "--seeds", seeds,
                     "--set", "epochs=1", "--set", "steps_per_episode=20", "--set", "n_agents=2"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["eval_episodes=-1", "llm_temperature=Infinity"])
    def test_bad_value_exits_2_without_out_dir(self, tmp_path, graph_file, capsys, setting):
        out = tmp_path / "ablation"
        assert main(["ablation", "--graph", graph_file, "--out", str(out), "--seeds", "0",
                     "--set", "epochs=1", "--set", "steps_per_episode=20", "--set", "n_agents=2",
                     "--set", setting]) == 2
        assert f"error: bad configuration: {setting.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2_before_writing(self, tmp_path, graph_file, capsys):
        out = tmp_path / "ablation"
        assert main(["ablation", "--graph", graph_file, "--out", str(out),
                     "--set", "epoch=3"]) == 2
        assert "epoch" in capsys.readouterr().err
        assert not out.exists()


class TestDemoReport:
    def test_oracle_provider_always_valid(self, tmp_path, graph_file):
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out),
                     "--phases", "2", "--prompts", "3", "--provider", "oracle",
                     "--seed", "0", "--set", "n_agents=2",
                     "--set", "steps_per_episode=20"])
        assert code == 0
        rows = read_csv(out / "demo_report.csv")
        assert rows[0] == ["phase", "tokens", "validity_rate", "mean_reward", "mean_dtw"]
        assert len(rows) == 3
        assert all(float(r[2]) == 100.0 for r in rows[1:])

    def test_scripted_mock_improves(self, tmp_path, graph_file):
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        # phase 1: one invalid agent and a long detour; later phases improve
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 99], "1": [2, 1, 0, 3, 6]}')
        (mock_dir / "001.txt").write_text('{"0": [0, 3, 4, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
        (mock_dir / "002.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 4, 3, 6]}')
        (mock_dir / "003.txt").write_text('{"0": [0, 3, 6, 7, 8], "1": [2, 1, 0, 3, 6]}')
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out),
                     "--phases", "2", "--prompts", "2", "--provider", "mock",
                     "--mock-dir", str(mock_dir), "--seed", "0",
                     "--set", "n_agents=2", "--set", "steps_per_episode=20",
                     "--set", "agents=[[0,8,0],[2,6,0]]"])
        assert code == 0
        rows = read_csv(out / "demo_report.csv")
        validity = [float(r[2]) for r in rows[1:]]
        tokens = [int(r[1]) for r in rows[1:]]
        assert validity[0] < validity[1] == 100.0
        assert tokens[1] > tokens[0]  # refinement grows the prompt


    @pytest.mark.parametrize("flag", ["--prompts", "--phases"])
    def test_counts_below_one_exit_2(self, tmp_path, graph_file, capsys, flag):
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out),
                     "--set", "n_agents=2", flag, "0"])
        assert code == 2
        assert "error: need at least one phase and one prompt" in capsys.readouterr().err
        assert not out.exists()

    def test_mock_without_mock_dir_exits_2(self, tmp_path, graph_file, monkeypatch, capsys):
        monkeypatch.delenv("ROUTECOACH_LLM_BASE_URL", raising=False)
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out),
                     "--provider", "mock", "--set", "n_agents=2"])
        assert code == 2
        assert "error: --provider mock needs --mock-dir" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_mock_script_exits_2(self, tmp_path, graph_file, capsys):
        """demo-report has no fallback: a script it cannot read fails as a failing endpoint does."""
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_bytes(b"\xff")
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out), "--phases", "1", "--prompts", "1",
                     "--provider", "mock", "--mock-dir", str(mock_dir), "--set", "n_agents=2"])
        assert code == 2
        assert f"error: cannot read mock script {mock_dir / '000.txt'}" in capsys.readouterr().err
        assert not (out / "demo_report.csv").exists()

    @pytest.mark.parametrize("mode", ["ippo", "logit-ppo"])
    def test_mode_overriding_provider_exits_2(self, tmp_path, graph_file, capsys, mode):
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8]}')
        out = tmp_path / "report"
        code = main(["demo-report", "--graph", graph_file, "--out", str(out),
                     "--provider", "mock", "--mock-dir", str(mock_dir),
                     "--set", "n_agents=2", "--set", f"mode={mode}"])
        assert code == 2
        assert f"error: mode '{mode}' overrides --provider mock" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_endpoint_raises_instead_of_oracle_fallback(self):
        class Exploding:
            def complete(self, prompt):
                raise LlmError("endpoint down")

        cfg = TrainConfig(n_agents=2, steps_per_episode=20, expert_provider="llm")
        assert cfg.provider_fallback == "oracle"
        with pytest.raises(LlmError, match="endpoint down"):
            demo_quality_report(grid_graph(3), (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6)), cfg,
                                Exploding(), phases=1, prompts_per_phase=1)


class TestLlmConfigErrors:
    def test_unset_endpoint_exits_2(self, tmp_path, graph_file, monkeypatch, capsys):
        monkeypatch.delenv("ROUTECOACH_LLM_BASE_URL", raising=False)
        code = main(["demo-report", "--graph", graph_file, "--out", str(tmp_path / "report"),
                     "--provider", "llm", "--set", "n_agents=2"])
        assert code == 2
        assert "error: ROUTECOACH_LLM_BASE_URL" in capsys.readouterr().err

    def test_unreadable_mock_script_falls_back(self, tmp_path, base_config):
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_bytes(b"\xff")
        assert main(["train", "--config", base_config, "--out", str(tmp_path / "run"),
                     "--provider", "llm", "--mock-dir", str(mock_dir)]) == 0

    def test_empty_mock_dir_exits_2(self, tmp_path, base_config, capsys):
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        code = main(["train", "--config", base_config, "--out", str(tmp_path / "run"),
                     "--provider", "llm", "--mock-dir", str(mock_dir)])
        assert code == 2
        assert "no .txt scripts" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestPlotData:
    def test_aggregates_and_smooths(self, tmp_path, base_config):
        runs = []
        for seed in (0, 1):
            out = tmp_path / f"run{seed}"
            main(["train", "--config", base_config, "--out", str(out),
                  "--seed", str(seed)])
            runs.append(str(out / "metrics.csv"))
        out = tmp_path / "plot"
        assert main(["plot-data", *runs, "--window", "2", "--out", str(out)]) == 0
        rows = read_csv(out / "plot_data.csv")
        assert rows[0] == ["epoch", "reward_mean", "reward_std"]
        assert len(rows) == 5

    def test_window_one_is_identity(self, tmp_path, base_config):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        plot = tmp_path / "plot"
        main(["plot-data", str(out / "metrics.csv"), "--window", "1", "--out", str(plot)])
        metrics = read_csv(out / "metrics.csv")
        plot_rows = read_csv(plot / "plot_data.csv")
        reward_col = metrics[0].index("mean_reward_a")
        for m, p in zip(metrics[1:], plot_rows[1:]):
            assert float(p[1]) == pytest.approx(float(m[reward_col]))

    def test_misaligned_truncated_with_warning(self, tmp_path, base_config, capsys):
        long_run = tmp_path / "long"
        main(["train", "--config", base_config, "--out", str(long_run), "--epochs", "6"])
        short_run = tmp_path / "short"
        main(["train", "--config", base_config, "--out", str(short_run), "--epochs", "3"])
        plot = tmp_path / "plot"
        code = main(["plot-data", str(long_run / "metrics.csv"),
                     str(short_run / "metrics.csv"), "--window", "1", "--out", str(plot)])
        assert code == 0
        assert "truncating" in capsys.readouterr().err
        assert len(read_csv(plot / "plot_data.csv")) == 4

    def test_missing_metrics_file_exits_2(self, tmp_path, capsys):
        plot = tmp_path / "p"
        assert main(["plot-data", str(tmp_path / "missing.csv"), "--out", str(plot)]) == 2
        assert f"error: metrics file not found: {tmp_path / 'missing.csv'}" in capsys.readouterr().err
        assert not plot.exists()

    def test_column_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot-data", str(bad), "--out", str(tmp_path / "p")]) == 2

    @pytest.mark.parametrize("row, shown", [("1,abc", "'abc'"), ("1", "None"), ("1,nan", "'nan'"),
                                            ("1,inf", "'inf'"), ("1,-Infinity", "'-Infinity'")])
    def test_reward_not_a_number_exits_2(self, tmp_path, capsys, row, shown):
        bad = tmp_path / "metrics.csv"
        bad.write_text(f"epoch,mean_reward_a\n0,1.5\n{row}\n")
        plot = tmp_path / "plot"
        assert main(["plot-data", str(bad), "--out", str(plot)]) == 2
        assert f"error: {bad} line 3: mean_reward_a is {shown}, not a finite number" in capsys.readouterr().err
        assert not plot.exists()

    @pytest.mark.parametrize("files", [["empty"], ["full", "empty"]], ids=["alone", "one-of-several"])
    def test_metrics_file_without_rows_exits_2(self, tmp_path, capsys, files):
        paths = {"empty": tmp_path / "empty.csv", "full": tmp_path / "full.csv"}
        paths["empty"].write_text("epoch,mean_reward_a\n")
        paths["full"].write_text("epoch,mean_reward_a\n0,1.5\n1,2.5\n")
        plot = tmp_path / "plot"
        assert main(["plot-data", *(str(paths[f]) for f in files), "--out", str(plot)]) == 2
        assert f"error: {paths['empty']} has no rows" in capsys.readouterr().err
        assert not plot.exists()

    def test_window_below_one_exits_2(self, tmp_path, base_config, capsys):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        plot = tmp_path / "plot"
        assert main(["plot-data", str(out / "metrics.csv"), "--window", "0", "--out", str(plot)]) == 2
        assert "--window must be at least 1" in capsys.readouterr().err
        assert not plot.exists()


class TestMakeGraph:
    def test_grid_and_hilly(self, tmp_path):
        grid_path = tmp_path / "g.json"
        assert main(["make-graph", "--kind", "grid", "--n", "4", "--out", str(grid_path)]) == 0
        from routecoach import load_graph
        g = load_graph(grid_path.read_text())
        assert g.node_count == 16
        hilly_path = tmp_path / "h.json"
        assert main(["make-graph", "--kind", "hilly", "--out", str(hilly_path)]) == 0
        assert load_graph(hilly_path.read_text()).node_count == 9

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_edge_length_exits_2(self, tmp_path, capsys, length):
        path = tmp_path / "g.json"
        assert main(["make-graph", "--n", "3", "--edge-length", length, "--out", str(path)]) == 2
        assert "error: cannot build the grid map: junction 0 has non-finite coordinates" in capsys.readouterr().err
        assert not path.exists()

    def test_edge_length_whose_square_overflows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["make-graph", "--n", "3", "--edge-length", "1e200", "--out", str(path)]) == 2
        assert "error: cannot build the grid map: graph too large: its summed edge length" in capsys.readouterr().err
        assert not path.exists()

    def test_grid_too_small_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["make-graph", "--kind", "grid", "--n", "1", "--out", str(path)]) == 2
        assert "n >= 2" in capsys.readouterr().err
        assert not path.exists()


def test_moving_average_edges():
    x = np.array([1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(moving_average(x, 1), x)
    np.testing.assert_allclose(moving_average(x, 2), [1.0, 2.0, 4.0, 6.0])
    np.testing.assert_allclose(moving_average(x, 10), [1.0, 2.0, 3.0, 4.0])

    def loop(x, window):  # one window at a time, over the same cumulative sum
        csum = np.cumsum(np.insert(x, 0, 0.0))
        out = np.empty_like(x)
        for t in range(x.size):
            lo = max(0, t - window + 1)
            out[t] = (csum[t + 1] - csum[lo]) / (t + 1 - lo)
        return out

    rng = np.random.default_rng(0)
    for _ in range(300):
        x = rng.normal(size=rng.integers(0, 300)) * 10.0 ** rng.integers(-3, 4)
        window = int(rng.integers(1, 40))
        assert moving_average(x, window).tobytes() == loop(x, window).tobytes()

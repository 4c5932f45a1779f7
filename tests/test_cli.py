import csv
import json

import numpy as np
import pytest

from routecoach import grid_graph, write_graph
from routecoach.cli import main, moving_average


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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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


class TestEvaluate:
    def test_runs_on_finished_training(self, tmp_path, base_config):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        assert main(["evaluate", "--run", str(out), "--episodes", "5"]) == 0
        rows = read_csv(out / "eval.csv")
        assert rows[0] == ["episode", "mean_reward"]
        assert len(rows) == 6

    def test_hash_mismatch_rejected(self, tmp_path, base_config):
        out = tmp_path / "run"
        main(["train", "--config", base_config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config_hash"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--run", str(out)]) == 2

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


class TestSweep:
    def test_rows_per_count_and_dedupe(self, tmp_path, graph_file, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-agents", "--graph", graph_file, "--out", str(out),
                     "--counts", "1,2,2", "--seeds", "0",
                     "--set", "epochs=2", "--set", "steps_per_episode=20"])
        assert code == 0
        assert "duplicate" in capsys.readouterr().err
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["n_agents", "reward_mean", "reward_std", "seconds_per_epoch"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]


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

    def test_column_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot-data", str(bad), "--out", str(tmp_path / "p")]) == 2


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


def test_moving_average_edges():
    x = np.array([1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(moving_average(x, 1), x)
    np.testing.assert_allclose(moving_average(x, 2), [1.0, 2.0, 4.0, 6.0])
    np.testing.assert_allclose(moving_average(x, 10), [1.0, 2.0, 3.0, 4.0])

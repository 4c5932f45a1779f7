"""Driving experiments through the command-line harness.

Exercises every subcommand end to end in a temporary directory that is
removed at the end: train, evaluate, an agent-count sweep, the loss-mixing
ablation and the evaluation of one of its runs, a demonstration quality
report against a scripted mock endpoint, and plot-data smoothing.
All runs are tiny; the point is the artifact layout, not the learning.
"""
import json
import tempfile
from pathlib import Path

from routecoach.cli import main

with tempfile.TemporaryDirectory(prefix="routecoach_demo_") as work:
    tmp = Path(work)
    print("working under", tmp)

    main(["make-graph", "--kind", "grid", "--n", "3", "--out", str(tmp / "grid3.json")])

    config = {
        "graph": str(tmp / "grid3.json"),
        "n_agents": 2,
        "agents": [[0, 8, 0], [2, 6, 0]],
        "epochs": 4,
        "steps_per_episode": 30,
        "demo_interval": 2,
        "expert_provider": "oracle",
        "seed": 0,
    }
    (tmp / "config.json").write_text(json.dumps(config, indent=2))

    print("\n$ routecoach train")
    main(["train", "--config", str(tmp / "config.json"), "--out", str(tmp / "run")])
    print("artifacts:", sorted(p.name for p in (tmp / "run").iterdir()))

    print("\n$ routecoach evaluate")
    main(["evaluate", "--run", str(tmp / "run"), "--episodes", "5"])

    print("\n$ routecoach sweep-agents")
    main(["sweep-agents", "--config", str(tmp / "config.json"), "--out", str(tmp / "sweep"),
          "--counts", "1,2", "--seeds", "0", "--set", "agents=null", "--set", "epochs=2"])

    print("\n$ routecoach ablation")
    main(["ablation", "--config", str(tmp / "config.json"), "--out", str(tmp / "ablation"),
          "--seeds", "0", "--set", "epochs=3"])
    print((tmp / "ablation" / "ablation.csv").read_text().splitlines()[0])
    print("run directories:", sorted(p.name for p in (tmp / "ablation").iterdir() if p.is_dir()))

    print("\n$ routecoach evaluate (one ablation run)")
    main(["evaluate", "--run", str(tmp / "ablation" / "dynamic" / "seed0")])

    print("\n$ routecoach demo-report (scripted mock endpoint)")
    mock = tmp / "mock"
    mock.mkdir()
    (mock / "000.txt").write_text('{"0": [0, 1, 4, 3, 6, 7, 8], "1": [2, 1, 99]}')
    (mock / "001.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
    main(["demo-report", "--config", str(tmp / "config.json"), "--out", str(tmp / "report"),
          "--phases", "2", "--prompts", "1", "--provider", "mock", "--mock-dir", str(mock)])

    print("\n$ routecoach plot-data")
    main(["plot-data", str(tmp / "run" / "metrics.csv"), "--window", "2",
          "--out", str(tmp / "plot")])

#!/usr/bin/env python3
"""Training benchmark for routecoach, end to end and layer by layer.

    python3 bench/run.py --workload a6-grid5 --seed 3 --seconds 40 --trace 0

Drives the library the way ``routecoach train`` does: build a grid
``RoadGraph`` and a ``Trainer`` from inputs drawn from ``--seed``, then
``Trainer.train(out_dir=...)``.  With ``--trace 0`` it makes as many
identical training runs as fit in ``--seconds`` at the workload's nominal
run time (at least two) and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced training run and two traced ones and
reports the per-layer metrics; the two traced runs must agree on every
count.  All times are ``time.perf_counter`` seconds as measured, pooled
over the identical training runs.

Every training run is checked: ``metrics.csv`` must have one row per
epoch, the validity column must match what the inputs imply, and its
sha256 must repeat across runs in the process and match ``pinned.json``
when the seed is pinned there.  The last stdout line is the JSON result;
the line before it records the environment.  ``--pin`` trains once and
writes the digest for that workload and seed into ``pinned.json``.
"""
from __future__ import annotations

import os

# one process, one BLAS thread: steadier timings, and the digests do not
# depend on how many cores the machine has
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "pinned.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 8   # extra set-ups before each training run
MIN_RUNS = 2        # identical training runs per timed measurement
TRACED_RUNS = 2     # traced runs, whose counts must agree, after one untraced run


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "routecoach" / "__init__.py").is_file():
    fail(f"no routecoach sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402

import routecoach  # noqa: E402
from routecoach import Trainer, grid_graph  # noqa: E402

import tracing  # noqa: E402
from workloads import A6_SUSTAIN, A6_TARGET_SHARE, WORKLOADS, Inputs, Workload, make_inputs  # noqa: E402

clock = time.perf_counter


# -- one training run ----------------------------------------------------------

@dataclass
class RunRecord:
    """Clock readings of one checked training run over every task set."""

    setup_seconds: list[float]
    # Trainer.train cut at the end of each epoch's callback: every epoch
    # with its callback, then the final checkpoint
    step_seconds: list[float]
    epoch_seconds: list[float]         # Trainer.run_epoch seconds, as in timing.csv
    samples: int = 0
    digest: str = ""
    # the slowest task set's; stays 0 where the workload does not evaluate each epoch
    epochs_to_target: int = 0
    problems: list[str] = field(default_factory=list)


def samples_per_s(runs: list[RunRecord]) -> float:
    """Samples over training time, epoch callbacks and final checkpoint included."""
    return sum(r.samples for r in runs) / sum(sum(r.step_seconds) for r in runs)


def build(workload: Workload, inputs: Inputs, task_set: int) -> tuple[Trainer, float]:
    """The timed set-up: graph, env validation, network init, mock client."""
    start = clock()
    graph = grid_graph(workload.grid)
    mock_dir = inputs.mock_dirs[task_set] if workload.mock_llm else None
    config = workload.train_config(inputs.seeds[task_set], mock_dir)
    trainer = Trainer(config, graph, inputs.specs[task_set])
    return trainer, clock() - start


def consumed_samples(trainer: Trainer) -> int:
    """Agent plus expert transitions the epoch's updates consumed."""
    use_expert = trainer.config.mode_kind != "ippo"
    total = 0
    for learner in trainer.learners:
        if len(learner.last_agent) == 0:
            continue  # update_agent skips an empty trajectory
        total += len(learner.last_agent)
        if use_expert and learner.last_expert is not None:
            total += len(learner.last_expert)
    return total


def reach_epoch(evals: list[float], target: float) -> int:
    """First epoch of the first run of A6_SUSTAIN evaluations at or above target.

    A miss counts as one epoch more than were trained, as in the A6 test.
    """
    run = 0
    for i, value in enumerate(evals):
        run = run + 1 if value >= target else 0
        if run >= A6_SUSTAIN:
            return i + 2 - A6_SUSTAIN
    return len(evals) + 1


def train_once(workload: Workload, inputs: Inputs, out: Path) -> RunRecord:
    """Train every task set in turn; the digest covers all their metrics.csv files."""
    run = RunRecord(setup_seconds=[], step_seconds=[], epoch_seconds=[])
    digest = hashlib.sha256()
    for task_set in range(len(inputs.specs)):
        trainer, setup = build(workload, inputs, task_set)
        evals: list[float] = []
        marks = []

        def on_epoch(row) -> None:
            run.samples += consumed_samples(trainer)
            if workload.evaluate_each_epoch:
                evals.append(trainer.evaluate(1).mean)
            marks.append(clock())

        directory = out / f"set{task_set}"
        marks.append(clock())
        result = trainer.train(out_dir=directory, on_epoch=on_epoch)
        marks.append(clock())
        run.step_seconds += list(np.diff(marks))
        run.setup_seconds.append(setup)
        run.epoch_seconds += [m.seconds for m in result.metrics]
        digest.update((directory / "metrics.csv").read_bytes())
        if workload.evaluate_each_epoch:
            run.epochs_to_target = max(run.epochs_to_target,
                                       reach_epoch(evals, A6_TARGET_SHARE * inputs.oracle_return))
        run.problems += check_outputs(workload, inputs, task_set, directory)
    shutil.rmtree(out)
    run.digest = digest.hexdigest()
    return run


def check_outputs(workload: Workload, inputs: Inputs, task_set: int, out: Path) -> list[str]:
    """What the inputs let us know about metrics.csv without trusting the trainer."""
    lines = (out / "metrics.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    epochs = workload.config["epochs"]
    problems = []
    if tuple(header) != routecoach.training.METRICS_COLUMNS:
        problems.append(f"metrics.csv header {header}")
    if [r[0] for r in rows] != [str(k) for k in range(1, epochs + 1)]:
        return problems + [f"metrics.csv has epochs {[r[0] for r in rows]}"]
    col = {name: header.index(name) for name in header}
    for k, row in enumerate(rows, start=1):
        validity = float(row[col["validity_rate"]])
        expected = inputs.expected_validity[task_set][k - 1] if workload.mock_llm else 100.0
        if validity != expected:
            problems.append(f"epoch {k}: validity {validity}, expected {expected}")
        alpha = float(row[col["alpha_mean"]])
        if not 0.0 < alpha <= 1.0:
            problems.append(f"epoch {k}: alpha_mean {alpha} outside (0, 1]")
        if workload.evaluate_each_epoch:
            reward_e = float(row[col["mean_reward_e"]])
            if not math.isclose(reward_e, inputs.oracle_return, rel_tol=1e-12):
                problems.append(f"epoch {k}: expert reward {reward_e}, oracle {inputs.oracle_return}")
    manifest = json.loads((out / "checkpoints" / "checkpoint_manifest.json").read_text())
    if manifest["epoch"] != epochs:
        problems.append(f"final checkpoint at epoch {manifest['epoch']}")
    return problems


# -- the two kinds of run ---------------------------------------------------------

@dataclass
class Session:
    workload: Workload
    inputs: Inputs
    workdir: Path
    pinned: str | None
    attempted: int = 0
    failed: int = 0
    digest: str | None = None

    def train(self) -> RunRecord | None:
        """One checked training run; None when it raised."""
        self.attempted += 1
        try:
            run = train_once(self.workload, self.inputs, self.workdir / f"run{self.attempted}")
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            print(f"bench: run {self.attempted} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.digest = self.digest or run.digest
        if run.digest != self.digest:
            run.problems.append(f"metrics.csv digest {run.digest} differs from the first run's {self.digest}")
        if self.pinned is not None and run.digest != self.pinned:
            run.problems.append(f"metrics.csv digest {run.digest} differs from pinned {self.pinned}")
        if run.problems:
            self.failed += 1
            for problem in run.problems:
                print(f"bench: run {self.attempted}: {problem}", file=sys.stderr)
        return run

    def flag(self, message: str) -> None:
        self.failed += 1
        print(f"bench: {message}", file=sys.stderr)


def train_runs(session: Session, count: int) -> list[RunRecord]:
    runs = [run for run in (session.train() for _ in range(count)) if run is not None]
    if not runs:
        fail("no training run completed", 1)
    return runs


def measure_end_to_end(session: Session, seconds: float) -> dict[str, float]:
    count = max(MIN_RUNS, round(seconds / session.workload.nominal_seconds))
    task_sets = len(session.inputs.specs)
    setups, runs = [], []
    for _ in range(count):
        setups += [build(session.workload, session.inputs, i % task_sets)[1]
                   for i in range(SETUP_REPEATS)]
        runs += train_runs(session, 1)
    setups += [t for r in runs for t in r.setup_seconds]
    # both benchmarked workloads pool at least 100 epochs, so at least ten lie beyond p90
    epochs = [t for r in runs for t in r.epoch_seconds]
    return {
        "setup_s": statistics.median(setups),
        "samples_per_s": samples_per_s(runs),
        "epoch_s.p50": statistics.median(epochs),
        "epoch_s.p90": statistics.quantiles(epochs, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(session: Session) -> dict[str, float]:
    tracers = []
    plain = train_runs(session, 1)[0]
    for _ in range(TRACED_RUNS):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = session.train()
        finally:
            tracer.uninstall()
        if run is not None:
            tracers.append((run, tracer))
    if not tracers:
        fail("no traced training run completed", 1)
    tables = [tracer.table() for _run, tracer in tracers]
    print_summary(tables[0])
    traced = [(run, layer_metrics(table, tracer, run))
              for (run, tracer), table in zip(tracers, tables)]
    first = traced[0][1]
    for _run, values in traced[1:]:
        for name, (value, is_count) in values.items():
            if is_count and value != first[name][0]:
                session.flag(f"count {name} changed between traced runs: {first[name][0]} then {value}")
    for name in session.workload.target_spans:
        if tables[0].calls[name] == 0:
            session.flag(f"{session.workload.name}: no calls to {name}; the workload no longer exercises it")
    if session.workload.mock_llm:
        expected = sum(map(sum, session.inputs.expected_fallbacks))
        if first["demos.fallback_agents"][0] != expected:
            session.flag(f"fallback agents {first['demos.fallback_agents'][0]}, expected {expected}")
    metrics = {}
    for name, (value, is_count) in first.items():
        metrics[name] = value if is_count else statistics.median(v[name][0] for _r, v in traced)
    traced_sps = statistics.median(samples_per_s([r]) for r, _v in traced)
    metrics["trace.overhead"] = samples_per_s([plain]) / traced_sps
    return metrics


def layer_metrics(table: tracing.SpanTable, tracer: tracing.Tracer, run: RunRecord) -> dict:
    """name -> (value, is_count); counts must repeat exactly for a seed."""
    calls, secs, self_secs, layers = table.calls, table.seconds, table.self_seconds, table.layer_seconds
    counts = tracer.counts
    out = {}

    def count(name, value):
        out[name] = (value, True)

    def timed(name, value):
        out[name] = (value, False)

    for span in ("training.rollout", "training.update_agent"):
        count(span + ".calls", calls[span])
        timed(span + ".s", secs[span])
        timed(span + ".self_s", self_secs[span])
    count("training.regenerate_demos.calls", calls["training.regenerate_demos"])
    timed("training.regenerate_demos.s", secs["training.regenerate_demos"])
    timed("training.evaluate.s", secs["training.evaluate"])
    timed("training.save_checkpoint.s", secs["training.save_checkpoint"])
    count("training.epochs_to_target", run.epochs_to_target)
    count("nets.policy_forward.calls", calls["nets.policy_forward"])
    timed("nets.policy_forward.s", secs["nets.policy_forward"])
    for span in ("policy_forward_batch", "policy_backward", "value_forward", "value_backward"):
        timed(f"nets.{span}.s", secs["nets." + span])
    count("nets.adam_step.calls", calls["nets.adam_step"])
    timed("nets.adam_step.s", secs["nets.adam_step"])
    count("nets.mlp_forward.rows", counts["nets.mlp_forward.rows"])
    count("nets.mlp_backward.rows", counts["nets.mlp_backward.rows"])
    count("env.step.calls", calls["env.step"])
    timed("env.step.self_s", self_secs["env.step"])
    count("env.observe.calls", calls["env.observe"])
    timed("env.observe.s", secs["env.observe"])
    count("env.observe_useful_ratio", counts["transitions"] / max(calls["env.observe"], 1))
    for span in ("k_shortest_paths", "shortest_path"):
        count(f"graph.{span}.calls", calls["graph." + span])
        timed(f"graph.{span}.s", secs["graph." + span])
    count("graph.route_queries_distinct_ratio",
          len(tracer.route_keys) / max(counts["graph.route_queries"], 1))
    for span in ("logit_expert", "oracle_expert", "execute_demos", "parse_instructions",
                 "prepare_executable"):
        timed(f"demos.{span}.s", secs["demos." + span])
    count("demos.validity_rate", tracer.validity_sum / max(counts["proposals"], 1))
    count("demos.fallback_agents", counts["demos.fallback_agents"])
    count("trajectory.dtw_distance.calls", calls["trajectory.dtw_distance"])
    timed("trajectory.dtw_distance.s", secs["trajectory.dtw_distance"])
    count("trajectory.dtw_cells", counts["trajectory.dtw_cells"])
    count("prompts.build_prompt.calls", calls["prompts.build_prompt"])
    timed("prompts.build_prompt.s", secs["prompts.build_prompt"])
    count("prompts.prompt_chars.last", counts["prompts.prompt_chars.last"])
    timed("prompts.refine_prompt.s", secs["prompts.refine_prompt"])
    count("llm.complete.calls", calls["llm.complete"])
    timed("llm.complete.s", secs["llm.complete"])
    count("llm.tokens", counts["llm.tokens"])
    count("llm.errors", tracer.errors["llm.complete"])
    for layer in ("nets", "env", "losses", "graph", "demos", "trajectory", "prompts", "llm"):
        timed(f"{layer}.s", layers.get(layer, 0.0))
    timed("trace.unattributed_share", table.epoch_self_seconds / table.epoch_seconds)
    return out


def print_summary(table: tracing.SpanTable) -> None:
    """Shares of epoch time, for reading a traced run by eye."""
    def shares(items, top):
        ranked = sorted(items, key=lambda kv: -kv[1])[:top]
        return ", ".join(f"{name} {s / table.epoch_seconds:.1%}" for name, s in ranked)

    print("trace: epoch time by top-level span: " + shares(table.epoch_children.items(), 6))
    print("trace: largest self time: " + shares(table.self_seconds.items(), 8))


# -- environment and output ---------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy has no dict form; the record is best effort
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record this seed's metrics.csv digest")
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    workload = WORKLOADS[args.workload]
    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pinned = None if args.pin else pins.get(workload.name, {}).get(str(args.seed))

    workdir = BENCH_DIR / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = make_inputs(workload, args.seed, workdir)
        session = Session(workload, inputs, workdir, pinned)
        if args.pin:
            run = session.train()
            if run is None or session.failed:
                fail("the run to pin failed", 1)
            pins.setdefault(workload.name, {})[str(args.seed)] = run.digest
            PINNED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
            print(f"pinned {workload.name} seed {args.seed}: {run.digest}")
            return 0
        if args.trace:
            values = measure_layers(session)
        else:
            values = measure_end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            workdir.parent.rmdir()

    units = declared_metrics(bool(args.trace))
    if set(units) != set(values):
        fail(f"metrics {sorted(set(values) ^ set(units))} differ from {SPEC.name}", 1)
    print(json.dumps({"environment": environment(), "workload": workload.name, "seed": args.seed,
                      "metrics_csv_sha256": session.digest, "pinned": pinned is not None}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

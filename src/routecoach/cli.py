"""Command-line experiment harness.

Subcommands: ``train``, ``evaluate``, ``sweep-agents``, ``ablation``,
``demo-report``, ``plot-data`` (plus ``make-graph`` for generating the
built-in fixture maps).  Configuration comes from a JSON file plus
``--set key=value`` overrides and a few direct flags; a key that is neither
a ``TrainConfig`` field nor ``graph`` or ``agents`` is rejected.  Every run
writes a manifest capturing the fully resolved configuration before any
training starts.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import __version__
from . import demos as dg
from .env import AgentSpec, EnvError, RouteEnv
from .fixtures import grid_graph, hilly_graph, write_graph
from .graph import GraphError, RoadGraph, load_graph
from .llm import ChatCompleter, LlmError
from .training import (
    PROVIDERS,
    TrainConfig,
    Trainer,
    TrainingError,
    completer_for,
    config_hash,
    env_from_config,
    evaluate,
    generate_agent_specs,
    load_checkpoint,
    policy_table,
    read_json_object,
    rollout,
)

ABLATION_VARIANTS = (
    ("dynamic", "dynamic"),
    ("fixed_alpha_0_2", "fixed-alpha:0.2"),
    ("fixed_alpha_0_5", "fixed-alpha:0.5"),
    ("logit_ppo", "logit-ppo"),
    ("ippo", "ippo"),
)


class ConfigError(ValueError):
    pass


# -- config plumbing ---------------------------------------------------------------

def _apply_sets(doc: dict, assignments: Sequence[str]) -> dict:
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return doc


def _env_from_doc(doc: dict, graph: RoadGraph, config: TrainConfig) -> RouteEnv:
    """The run's environment, on the tasks ``doc`` lists or, when it lists none, on tasks drawn from the seed."""
    agents = doc.get("agents")
    if agents is None:
        try:
            specs = generate_agent_specs(graph, config.n_agents, config.seed)
        except TrainingError as exc:
            raise ConfigError(str(exc)) from exc
    elif not isinstance(agents, list):
        raise ConfigError(f"'agents' must be a list of agent entries, got {agents!r}")
    else:
        for i, entry in enumerate(agents):
            if not (isinstance(entry, list) and 2 <= len(entry) <= 3 and all(type(v) is int for v in entry)):
                raise ConfigError(f"agent {i}: bad entry {entry!r}; expected [start, dest] "
                                  f"or [start, dest, depart_time] with integer entries")
        if len(agents) != config.n_agents:
            raise ConfigError(f"config lists {len(agents)} agents but n_agents={config.n_agents}")
        specs = [AgentSpec(i, *entry) for i, entry in enumerate(agents)]  # [start, dest(, depart_time)]
    try:
        return env_from_config(graph, specs, config)
    except EnvError as exc:
        raise ConfigError(f"bad agents: {exc}") from exc
    except TrainingError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def _resolve(args, extra_flags: dict | None = None) -> dict:
    path = getattr(args, "config", None)
    doc = {} if path is None else read_json_object(Path(path), "config file", error=ConfigError)
    _apply_sets(doc, getattr(args, "set", None) or [])
    for key, value in (extra_flags or {}).items():
        if value is not None:
            doc[key] = value
    return doc


def _config_from_doc(doc: dict) -> TrainConfig:
    """The ``TrainConfig`` of a resolved doc; ``graph`` and ``agents`` are the CLI's own keys."""
    fields = {k: v for k, v in doc.items() if k not in ("graph", "agents")}
    try:
        return TrainConfig.from_dict(fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def _load_graph_file(path: str | None) -> tuple[RoadGraph, Path, str]:
    if not path:
        raise ConfigError("no graph file configured (pass --graph or set 'graph' in the config)")
    if not isinstance(path, str):
        raise ConfigError(f"the graph file must be given as a path string, got {path!r}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"graph file not found: {p}")
    text = p.read_text()
    try:
        return load_graph(text), p, hashlib.sha256(text.encode()).hexdigest()
    except GraphError as exc:
        raise ConfigError(f"graph file {p}: {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` to the CSV file ``path``, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(out: Path, config: TrainConfig, graph_path: Path, graph_sha256: str,
                   specs: Sequence[AgentSpec], command: str) -> dict:
    manifest = {
        "command": command,
        "build": __version__,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "graph_file": str(graph_path.resolve()),
        "graph_sha256": graph_sha256,
        "agents": [[s.start, s.dest, s.depart_time] for s in specs],
        "seeds": [config.seed],
        "out_dir": str(out.resolve()),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


# -- subcommands ------------------------------------------------------------------------

def _resolve_run(doc: dict, graph: RoadGraph) -> tuple[TrainConfig, tuple[AgentSpec, ...]]:
    """The config and task set of the resolved doc ``doc``; ``ConfigError`` if either is bad."""
    config = _config_from_doc(doc)
    return config, _env_from_doc(doc, graph, config).specs


def _train_run(config: TrainConfig, specs: tuple[AgentSpec, ...], graph_file: tuple[RoadGraph, Path, str],
               out: Path, command: str) -> Trainer:
    """Train ``config`` on the task set ``specs`` into the run directory ``out`` and return the trainer.

    ``manifest.json`` is written before training starts; ``Trainer.train`` adds
    ``metrics.csv``, ``timing.csv`` and the checkpoints.
    """
    graph, graph_path, graph_sha256 = graph_file
    trainer = Trainer(config, graph, specs)
    write_manifest(out, config, graph_path, graph_sha256, specs, command)
    trainer.train(out_dir=out)
    return trainer


T = TypeVar("T")


def _train_runs(groups: dict[str, list[dict]], graph_file: tuple[RoadGraph, Path, str], out: Path,
                command: str, take: Callable[[Trainer], T]) -> Iterator[tuple[str, list[T]]]:
    """Train each group's resolved docs into ``out/<group>/seed<k>/``, yielding ``take`` of each run by group.

    Every config and task set is resolved once, before the first run writes,
    so that a bad one exits with nothing written.  A run's trainer is dropped
    once ``take`` has read it, so one trainer is alive at a time.
    """
    runs = {group: [_resolve_run(doc, graph_file[0]) for doc in docs] for group, docs in groups.items()}
    for group, resolved in runs.items():
        yield group, [take(_train_run(config, specs, graph_file, out / group / f"seed{config.seed}", command))
                      for config, specs in resolved]


def cmd_train(args) -> int:
    doc = _resolve(args, {
        "mode": args.mode, "seed": args.seed, "epochs": args.epochs,
        "n_agents": args.agents, "expert_provider": args.provider,
        "mock_dir": args.mock_dir, "graph": args.graph,
    })
    out = Path(args.out)
    graph_file = _load_graph_file(doc.get("graph"))
    trainer = _train_run(*_resolve_run(doc, graph_file[0]), graph_file, out, "train")
    print(f"trained {trainer.config.epochs} epochs; final mean reward "
          f"{trainer.metrics[-1].mean_reward_a:.3f}; outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    manifest = read_json_object(manifest_path, "run manifest",
                                ("config", "config_hash", "graph_file", "graph_sha256", "agents"), ConfigError)
    if not isinstance(manifest["config"], dict):
        raise ConfigError(f"run manifest {manifest_path}: 'config' must be a JSON object")
    config = _config_from_doc(manifest["config"])
    digest = config_hash(config)
    if digest != manifest["config_hash"]:
        raise ConfigError(f"run manifest {manifest_path}: config hashes to {digest}, "
                          f"not to the recorded config_hash {manifest['config_hash']!r}")
    if args.episodes is not None:
        config = _config_from_doc({**manifest["config"], "eval_episodes": args.episodes})
    graph, graph_path, graph_sha256 = _load_graph_file(manifest["graph_file"])
    if graph_sha256 != manifest["graph_sha256"]:
        raise ConfigError(f"graph file {graph_path} changed since training (sha256 differs from the manifest)")
    env = _env_from_doc(manifest, graph, config)
    try:
        params, _ = load_checkpoint(run / "checkpoints", digest, env)
    except TrainingError as exc:
        raise ConfigError(str(exc)) from exc
    result = evaluate([p["policy"] for p in params], env, config.eval_episodes)
    _write_csv((Path(args.out) if args.out else run) / "eval.csv", ("episode", "mean_reward"),
               ((ep, repr(float(r))) for ep, r in enumerate(result.episode_rewards)))
    print(f"evaluated {config.eval_episodes} episodes: mean {result.mean:.3f}")
    return 0


def cmd_sweep_agents(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "epochs": args.epochs})
    if doc.get("agents") is not None:
        raise ConfigError("sweep-agents draws the tasks for each agent count; 'agents' must be null")
    out = Path(args.out)
    groups = {f"n{count}": [{**doc, "n_agents": count, "seed": seed} for seed in args.seeds]
              for count in args.counts}
    rows = []
    runs = _train_runs(groups, _load_graph_file(doc.get("graph")), out, "sweep-agents",
                       lambda t: t.evaluate().episode_rewards)
    for count, (_, results) in zip(args.counts, runs):
        episode_rewards = np.concatenate(results)
        rows.append((count, repr(float(np.mean(episode_rewards))), repr(float(np.std(episode_rewards)))))
        print(f"agents={count}: reward mean {rows[-1][1]} sigma {rows[-1][2]}")
    _write_csv(out / "sweep.csv", ("n_agents", "reward_mean", "reward_std"), rows)
    return 0


def cmd_ablation(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "epochs": args.epochs})
    out = Path(args.out)
    groups = {column: [{**doc, "mode": mode, "seed": seed} for seed in args.seeds]
              for column, mode in ABLATION_VARIANTS}
    curves: dict[str, np.ndarray] = {}
    for column, runs in _train_runs(groups, _load_graph_file(doc.get("graph")), out, "ablation",
                                    lambda t: [m.mean_reward_a for m in t.metrics]):
        curves[column] = np.mean(runs, axis=0)
        print(f"{column}: final mean reward {curves[column][-1]:.3f}")
    _write_csv(out / "ablation.csv", ("epoch", *curves),
               ((epoch, *(repr(float(r)) for r in rewards))
                for epoch, rewards in enumerate(zip(*curves.values()), start=1)))
    return 0


def demo_quality_report(
    graph: RoadGraph,
    specs: Sequence[AgentSpec],
    config: TrainConfig,
    completer: ChatCompleter | None,
    phases: int,
    prompts_per_phase: int,
) -> list[dg.DemoQualityRecord]:
    """Collect demonstration sets per refinement phase and grade them.

    Each phase runs the trainer's demonstration round ``prompts_per_phase``
    times against rollouts of a fresh (untrained) policy, reporting token
    usage, route validity, executed reward and DTW distance; the prompt is
    refined between phases from the phase's last round.  There is no
    provider fallback: a failing endpoint raises rather than being graded
    as oracle routes.
    """
    if phases < 1 or prompts_per_phase < 1:
        raise ConfigError(f"need at least one phase and one prompt per phase, "
                          f"got {phases} and {prompts_per_phase}")
    trainer = Trainer(replace(config, provider_fallback="none"), graph, specs, completer)
    # the untrained policies never change here, so one table serves every round
    table = policy_table(trainer.env, [ln.policy for ln in trainer.learners])
    rngs = [ln.rng for ln in trainer.learners]
    records: list[dg.DemoQualityRecord] = []
    for _phase in range(phases):
        tokens, flags, demo_rewards, dtw_values = [], [], [], []
        for _p in range(prompts_per_phase):
            tau_a = rollout(trainer.env, table, rngs)
            executable, _, token_count, tau_e, dtw = trainer.demonstrate(tau_a)
            tokens.append(token_count)
            flags.extend(executable.valid())
            demo_rewards.extend(tau_e[i].episode_reward for i in range(len(specs)))
            dtw_values.extend(dtw)
        records.append(dg.DemoQualityRecord(
            token_count=int(round(np.mean(tokens))),
            validity_rate=dg.validity_rate(flags),
            mean_reward=float(np.mean(demo_rewards)),
            mean_dtw=float(np.mean(dtw_values)),
        ))
        trainer.refine(tau_a, tau_e, dtw)
    return records


def cmd_demo_report(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "seed": args.seed, "mock_dir": args.mock_dir})
    if args.provider == "mock" and not doc.get("mock_dir"):
        raise ConfigError("--provider mock needs --mock-dir (or mock_dir in the config)")
    doc["expert_provider"] = "oracle" if args.provider == "oracle" else "llm"
    config = _config_from_doc(doc)
    if config.expert_provider != doc["expert_provider"]:
        raise ConfigError(f"mode {config.mode!r} overrides --provider {args.provider}")
    graph, _, _ = _load_graph_file(doc.get("graph"))
    specs = _env_from_doc(doc, graph, config).specs
    records = demo_quality_report(graph, specs, config, completer_for(config), args.phases, args.prompts)
    _write_csv(Path(args.out) / "demo_report.csv", ("phase", "tokens", "validity_rate", "mean_reward", "mean_dtw"),
               ((phase, rec.token_count, repr(rec.validity_rate), repr(rec.mean_reward), repr(rec.mean_dtw))
                for phase, rec in enumerate(records, start=1)))
    for phase, rec in enumerate(records, start=1):
        print(f"phase {phase}: tokens {rec.token_count} validity {rec.validity_rate:.1f}% "
              f"reward {rec.mean_reward:.3f} dtw {rec.mean_dtw:.3f}")
    return 0


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; expanding at the start, identity at window=1."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    csum = np.cumsum(np.insert(x, 0, 0.0))
    hi = np.arange(1, x.size + 1)
    lo = np.maximum(hi - window, 0)
    return (csum[hi] - csum[lo]) / (hi - lo)


def cmd_plot_data(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be at least 1, got {args.window}")
    curves = []
    for path in args.csvs:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"metrics file not found: {p}")
        with open(p, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "mean_reward_a" not in reader.fieldnames:
                raise ConfigError(f"{p} lacks a mean_reward_a column")
            rewards = []
            for row in reader:
                try:
                    reward = float(row["mean_reward_a"])
                except (TypeError, ValueError):
                    reward = np.nan
                if not np.isfinite(reward):  # one NaN would carry through every later moving average
                    raise ConfigError(f"{p} line {reader.line_num}: mean_reward_a is "
                                      f"{row['mean_reward_a']!r}, not a finite number")
                rewards.append(reward)
        if not rewards:
            raise ConfigError(f"{p} has no rows")
        curves.append(np.array(rewards))
    lengths = {c.size for c in curves}
    common = min(lengths)
    if len(lengths) > 1:
        print(f"warning: epoch ranges differ {sorted(lengths)}; truncating to {common}",
              file=sys.stderr)
    smoothed = np.array([moving_average(c[:common], args.window) for c in curves])
    path = Path(args.out) / "plot_data.csv"
    _write_csv(path, ("epoch", "reward_mean", "reward_std"),
               ((t + 1, repr(float(smoothed[:, t].mean())), repr(float(smoothed[:, t].std())))
                for t in range(common)))
    print(f"wrote {path} ({common} epochs, {len(curves)} runs)")
    return 0


def cmd_make_graph(args) -> int:
    try:
        graph = grid_graph(args.n, args.edge_length) if args.kind == "grid" else hilly_graph()
    except ValueError as exc:
        raise ConfigError(f"cannot build the {args.kind} map: {exc}") from exc
    write_graph(graph, args.out)
    print(f"wrote {args.out}: {graph.node_count} junctions, {len(graph.edges)} edges, "
          f"max out-degree {graph.max_out_degree}")
    return 0


# -- argument parsing -----------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """The integers of a comma-separated list, each once, in order; a repeat is dropped with a warning."""
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")
    unique = list(dict.fromkeys(values))
    if len(unique) < len(values):
        print(f"warning: duplicate values in {text!r} ignored", file=sys.stderr)
    return unique


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routecoach", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry")
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="run one training configuration")
    add_common(p)
    p.add_argument("--mode", help="dynamic | ippo | fixed-alpha:<v> | logit-ppo")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--agents", type=int, help="number of agents")
    p.add_argument("--provider", choices=PROVIDERS)
    p.add_argument("--mock-dir", help="directory of scripted completions (mock endpoint)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="greedy evaluation of a finished run")
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--episodes", type=int)
    p.add_argument("--out", help="where to write eval.csv (default: the run directory)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-agents", help="train/evaluate across agent counts")
    add_common(p)
    p.add_argument("--counts", type=_int_list, required=True, help="e.g. 5,10,15,20")
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_sweep_agents)

    p = sub.add_parser("ablation", help="compare loss-mixing variants on shared seeds")
    add_common(p)
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("demo-report", help="grade generated demonstrations per phase")
    add_common(p)
    p.add_argument("--phases", type=int, default=3)
    p.add_argument("--prompts", type=int, default=10)
    p.add_argument("--provider", choices=("mock", "llm", "oracle"), default="oracle")
    p.add_argument("--mock-dir", help="scripted completions for the mock provider")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_demo_report)

    p = sub.add_parser("plot-data", help="smooth and aggregate metrics CSVs")
    p.add_argument("csvs", nargs="+", help="metrics.csv files from runs with shared config")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot_data)

    p = sub.add_parser("make-graph", help="write a built-in fixture map")
    p.add_argument("--kind", choices=("grid", "hilly"), default="grid")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--edge-length", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_make_graph)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LlmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment harness.

Subcommands: ``train``, ``evaluate``, ``sweep-agents``, ``ablation``,
``demo-report``, ``plot-data`` (plus ``make-graph`` for generating the
built-in fixture maps).  Configuration comes from a JSON file plus
``--set dotted.path=value`` overrides and a few direct flags; every run
writes a manifest capturing the fully resolved configuration before any
training starts.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import demos as dg
from .env import AgentSpec, RouteEnv
from .fixtures import grid_graph, hilly_graph, write_graph
from .graph import GraphError, RoadGraph, load_graph
from .llm import ChatCompleter, EndpointConfig, HttpChatCompleter, MockChatCompleter
from .prompts import PromptState, build_prompt, refine_prompt
from .trajectory import dtw_distance, traj_to_feature_seq
from .training import (
    TrainConfig,
    Trainer,
    agent_rng,
    config_hash,
    evaluate,
    generate_agent_specs,
    load_checkpoint,
    rollout,
)
from . import nets

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

def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return doc


def _apply_sets(doc: dict, assignments: Sequence[str]) -> dict:
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set path {dotted!r} crosses a non-object value")
        target[parts[-1]] = value
    return doc


def _specs_from_doc(doc: dict, graph: RoadGraph, config: TrainConfig) -> tuple[AgentSpec, ...]:
    agents = doc.get("agents")
    if agents is None:
        return generate_agent_specs(graph, config.n_agents, config.seed)
    specs = []
    for i, entry in enumerate(agents):
        if isinstance(entry, dict):
            specs.append(AgentSpec(
                agent_id=i, start=int(entry["start"]), dest=int(entry["dest"]),
                depart_time=int(entry.get("depart_time", 0)),
            ))
        else:
            start, dest, *rest = entry
            specs.append(AgentSpec(agent_id=i, start=int(start), dest=int(dest),
                                   depart_time=int(rest[0]) if rest else 0))
    if len(specs) != config.n_agents:
        raise ConfigError(f"config lists {len(specs)} agents but n_agents={config.n_agents}")
    return tuple(specs)


def _resolve(args, extra_flags: dict | None = None) -> dict:
    doc = _read_config_file(getattr(args, "config", None))
    _apply_sets(doc, getattr(args, "set", None) or [])
    for key, value in (extra_flags or {}).items():
        if value is not None:
            doc[key] = value
    return doc


def _config_from_doc(doc: dict) -> TrainConfig:
    fields = {k: v for k, v in doc.items() if k in TrainConfig.__dataclass_fields__}
    try:
        return TrainConfig.from_dict(fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def _load_graph_file(path: str | None) -> tuple[RoadGraph, Path, str]:
    if not path:
        raise ConfigError("no graph file configured (pass --graph or set 'graph' in the config)")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"graph file not found: {p}")
    text = p.read_text()
    try:
        return load_graph(text), p, text
    except GraphError as exc:
        raise ConfigError(f"graph file {p}: {exc}") from exc


def _completer_for(config: TrainConfig) -> ChatCompleter | None:
    if config.expert_provider != "llm":
        return None
    if config.mock_dir:
        return MockChatCompleter(config.mock_dir)
    return HttpChatCompleter(EndpointConfig.from_env())


def write_manifest(out: Path, config: TrainConfig, graph_path: Path, graph_text: str,
                   specs: Sequence[AgentSpec], seeds: Sequence[int], command: str) -> dict:
    manifest = {
        "command": command,
        "build": __version__,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "graph_file": str(graph_path.resolve()),
        "graph_sha256": hashlib.sha256(graph_text.encode()).hexdigest(),
        "agents": [[s.start, s.dest, s.depart_time] for s in specs],
        "seeds": list(seeds),
        "out_dir": str(out.resolve()),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


# -- subcommands ------------------------------------------------------------------------

def cmd_train(args) -> int:
    doc = _resolve(args, {
        "mode": args.mode, "seed": args.seed, "epochs": args.epochs,
        "n_agents": args.agents, "expert_provider": args.provider,
        "mock_dir": args.mock_dir, "graph": args.graph,
    })
    config = _config_from_doc(doc)
    graph, graph_path, graph_text = _load_graph_file(doc.get("graph"))
    specs = _specs_from_doc(doc, graph, config)
    out = Path(args.out)
    write_manifest(out, config, graph_path, graph_text, specs, [config.seed], "train")
    trainer = Trainer(config, graph, specs, completer=_completer_for(config))
    result = trainer.train(out_dir=out)
    last = result.metrics[-1]
    print(f"trained {config.epochs} epochs; final mean reward {last.mean_reward_a:.3f}; "
          f"outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {run}")
    manifest = json.loads(manifest_path.read_text())
    config = TrainConfig.from_dict(manifest["config"])
    graph, graph_path, graph_text = _load_graph_file(manifest["graph_file"])
    if hashlib.sha256(graph_text.encode()).hexdigest() != manifest["graph_sha256"]:
        raise ConfigError(f"graph file {graph_path} changed since training (sha256 differs from the manifest)")
    specs = tuple(
        AgentSpec(agent_id=i, start=s, dest=d, depart_time=t)
        for i, (s, d, t) in enumerate(manifest["agents"])
    )
    params, ck_manifest = load_checkpoint(run / "checkpoints")
    if ck_manifest["config_hash"] != manifest["config_hash"]:
        raise ConfigError("checkpoint was produced by a different configuration than the manifest")
    env = RouteEnv(
        graph, specs, step_limit=config.steps_per_episode,
        time_penalty=config.time_penalty, shaping_coef=config.shaping_coef,
        arrival_bonus=config.arrival_bonus, congestion=config.congestion,
    )
    episodes = args.episodes or config.eval_episodes
    result = evaluate([p["policy"] for p in params], env, episodes)
    out = Path(args.out) if args.out else run
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("episode", "mean_reward"))
        for ep, r in enumerate(result.episode_rewards):
            writer.writerow((ep, repr(float(r))))
    print(f"evaluated {episodes} episodes: mean {result.mean:.3f} sigma {result.std:.3f}")
    return 0


def cmd_sweep_agents(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "epochs": args.epochs})
    base = _config_from_doc(doc)
    graph, _, _ = _load_graph_file(doc.get("graph"))
    counts: list[int] = []
    for c in args.counts:
        if c in counts:
            print(f"warning: duplicate agent count {c} ignored", file=sys.stderr)
        else:
            counts.append(c)
    seeds = args.seeds
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for count in counts:
        episode_rewards = []
        epoch_seconds = []
        for seed in seeds:
            cfg_doc = dict(doc)
            cfg_doc.update({"n_agents": count, "seed": seed})
            config = _config_from_doc(cfg_doc)
            trainer = Trainer(config, graph, completer=_completer_for(config))
            result = trainer.train()
            epoch_seconds.extend(m.seconds for m in result.metrics)
            episode_rewards.extend(trainer.evaluate().episode_rewards)
        rows.append((
            count,
            repr(float(np.mean(episode_rewards))),
            repr(float(np.std(episode_rewards))),
            f"{np.mean(epoch_seconds):.6f}",
        ))
        print(f"agents={count}: reward mean {rows[-1][1]} sigma {rows[-1][2]} "
              f"({rows[-1][3]} s/epoch)")
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n_agents", "reward_mean", "reward_std", "seconds_per_epoch"))
        writer.writerows(rows)
    return 0


def cmd_ablation(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "epochs": args.epochs})
    graph, _, _ = _load_graph_file(doc.get("graph"))
    seeds = args.seeds
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    per_variant: dict[str, np.ndarray] = {}
    epochs = None
    for column, mode in ABLATION_VARIANTS:
        seed_curves = []
        for seed in seeds:
            cfg_doc = dict(doc)
            cfg_doc.update({"mode": mode, "seed": seed})
            config = _config_from_doc(cfg_doc)
            trainer = Trainer(config, graph, completer=_completer_for(config))
            result = trainer.train()
            seed_curves.append([m.mean_reward_a for m in result.metrics])
            epochs = config.epochs
        per_variant[column] = np.mean(np.array(seed_curves), axis=0)
        print(f"{column}: final mean reward {per_variant[column][-1]:.3f}")
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch",) + tuple(c for c, _ in ABLATION_VARIANTS))
        for t in range(epochs):
            writer.writerow(
                (t + 1,) + tuple(repr(float(per_variant[c][t])) for c, _ in ABLATION_VARIANTS))
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

    Each phase gathers ``prompts_per_phase`` demonstration sets, reporting
    token usage, route validity, executed reward, and the DTW distance of
    the demos against rollouts of a fresh (untrained) policy; the prompt
    is refined between phases using the last collected trajectory pair.
    """
    env = RouteEnv(
        graph, specs, step_limit=config.steps_per_episode,
        time_penalty=config.time_penalty, shaping_coef=config.shaping_coef,
        arrival_bonus=config.arrival_bonus, congestion=config.congestion,
    )
    policies = [nets.init_mlp(agent_rng(config.seed, 0, i), env.obs_dim, env.n_actions)
                for i in range(len(specs))]
    rngs = [agent_rng(config.seed, 1, i) for i in range(len(specs))]

    def policy_logp(i, obs_vec, mask, action):
        return float(nets.policy_forward(policies[i], obs_vec, mask).log_probs[action])

    state = PromptState(graph=graph, specs=tuple(specs))
    records: list[dg.DemoQualityRecord] = []
    for _phase in range(phases):
        tokens, flags, demo_rewards, dtw_values = [], [], [], []
        last_pair = None
        for _p in range(prompts_per_phase):
            tau_a = rollout(env, policies, rngs, seed=config.seed)
            if completer is not None:
                reply = completer.complete(build_prompt(state))
                parsed = dg.parse_instructions(reply.text, len(specs), graph)
                executable, valid = dg.prepare_executable(
                    graph, specs, parsed, fallback=config.invalid_route_fallback)
                tokens.append(reply.token_count)
                flags.extend(valid[s.agent_id] for s in specs)
            else:
                executable = dg.oracle_expert(graph, specs)
                tokens.append(0)
                flags.extend(True for _ in specs)
            tau_e = dg.execute_demos(
                graph, specs, executable, policy_logp=policy_logp,
                seed=config.seed, step_limit=config.steps_per_episode,
                env_kwargs={"time_penalty": config.time_penalty,
                            "shaping_coef": config.shaping_coef,
                            "arrival_bonus": config.arrival_bonus,
                            "congestion": config.congestion},
            )
            for i in range(len(specs)):
                demo_rewards.append(tau_e[i].episode_reward)
                dtw_values.append(dtw_distance(
                    traj_to_feature_seq(tau_a[i], graph), traj_to_feature_seq(tau_e[i], graph)))
            last_pair = (tau_a, tau_e)
        records.append(dg.DemoQualityRecord(
            token_count=int(round(np.mean(tokens))),
            validity_rate=dg.validity_rate(flags),
            mean_reward=float(np.mean(demo_rewards)),
            mean_dtw=float(np.mean(dtw_values)),
        ))
        if completer is not None and last_pair is not None:
            tau_a, tau_e = last_pair
            state = refine_prompt(
                state,
                {i: (tau_a[i].junction_path, tau_a[i].episode_reward) for i in range(len(specs))},
                {i: (tau_e[i].junction_path, tau_e[i].episode_reward) for i in tau_e},
                {i: dtw_values[-len(specs) + i] for i in range(len(specs))},
            )
    return records


def cmd_demo_report(args) -> int:
    doc = _resolve(args, {"graph": args.graph, "seed": args.seed, "mock_dir": args.mock_dir})
    if args.provider == "oracle":
        doc["expert_provider"] = "oracle"
    else:
        doc["expert_provider"] = "llm"
    config = _config_from_doc(doc)
    graph, _, _ = _load_graph_file(doc.get("graph"))
    specs = _specs_from_doc(doc, graph, config)
    completer = _completer_for(config)
    records = demo_quality_report(graph, specs, config, completer, args.phases, args.prompts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "demo_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("phase", "tokens", "validity_rate", "mean_reward", "mean_dtw"))
        for phase, rec in enumerate(records, start=1):
            writer.writerow((phase, rec.token_count, repr(rec.validity_rate),
                             repr(rec.mean_reward), repr(rec.mean_dtw)))
            print(f"phase {phase}: tokens {rec.token_count} validity {rec.validity_rate:.1f}% "
                  f"reward {rec.mean_reward:.3f} dtw {rec.mean_dtw:.3f}")
    return 0


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; expanding at the start, identity at window=1."""
    if window < 1:
        raise ValueError("window must be >= 1")
    out = np.empty_like(np.asarray(x, dtype=float))
    csum = np.cumsum(np.insert(np.asarray(x, dtype=float), 0, 0.0))
    for t in range(out.size):
        lo = max(0, t - window + 1)
        out[t] = (csum[t + 1] - csum[lo]) / (t + 1 - lo)
    return out


def cmd_plot_data(args) -> int:
    curves = []
    lengths = []
    for path in args.csvs:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"metrics file not found: {p}")
        with open(p, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "mean_reward_a" not in reader.fieldnames:
                raise ConfigError(f"{p} lacks a mean_reward_a column")
            curves.append(np.array([float(row["mean_reward_a"]) for row in reader]))
        lengths.append(curves[-1].size)
    common = min(lengths)
    if len(set(lengths)) > 1:
        print(f"warning: epoch ranges differ {sorted(set(lengths))}; truncating to {common}",
              file=sys.stderr)
    smoothed = np.array([moving_average(c[:common], args.window) for c in curves])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "plot_data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "reward_mean", "reward_std"))
        for t in range(common):
            writer.writerow((t + 1, repr(float(smoothed[:, t].mean())),
                             repr(float(smoothed[:, t].std()))))
    print(f"wrote {out / 'plot_data.csv'} ({common} epochs, {len(curves)} runs)")
    return 0


def cmd_make_graph(args) -> int:
    if args.kind == "grid":
        graph = grid_graph(args.n, args.edge_length)
    else:
        graph = hilly_graph()
    write_graph(graph, args.out)
    print(f"wrote {args.out}: {graph.node_count} junctions, {len(graph.edges)} edges, "
          f"max out-degree {graph.max_out_degree}")
    return 0


# -- argument parsing -----------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routecoach", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config entry by dotted path")
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("train", help="run one training configuration")
    add_common(p)
    p.add_argument("--mode", help="dynamic | ippo | fixed-alpha:<v> | logit-ppo")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--agents", type=int, help="number of agents")
    p.add_argument("--provider", choices=("llm", "oracle", "logit", "none"))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads and the inputs each one draws from a seed.

BENCHMARK.json lists ``a6-grid5`` and ``refine-mockllm-grid10`` and says
why each exists.  Two more run by name, for traced runs of one layer:
``crowd-grid10`` (40 agents, 300 steps, congestion: rollout-bound, single-row
policy forwards and env step/observe) and ``regen-logit-grid15`` (logit-ppo
regenerating demos every epoch: Yen k-shortest paths dominate).  They are
not in BENCHMARK.json because on a shared 2-vCPU host the timings of four
workloads did not repeat within the run length the run budget allows.

Every workload trains on a square grid map.  The seed decides the agent
tasks (through ``generate_agent_specs``; A6 keeps its fixed tasks) and the
training seed, and for the mock-LLM workload also the scripted replies.
Input generation runs before and outside every timing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from routecoach import AgentSpec, TrainConfig, generate_agent_specs, grid_graph
from routecoach import demos as dg

# The A6 acceptance tasks on the 5x5 grid: corner to corner, both diagonals.
A6_SPECS = (AgentSpec(0, 0, 24), AgentSpec(1, 4, 20), AgentSpec(2, 24, 0))
A6_TARGET_SHARE = 0.8   # of the oracle return, as in A6
A6_SUSTAIN = 4          # consecutive evaluated epochs at or above the target

# Mock-LLM replies: share of agents whose scripted route is a valid
# k-shortest variant, how many variants to draw from, and which reply is
# not parsable at all.
MOCK_VALID_SHARE = 0.75
MOCK_VARIANTS = 4
MOCK_UNPARSABLE_REPLY = 2
UNPARSABLE_TEXT = "I could not work out the routes for this map, sorry."


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    config: dict
    # typical seconds of one training run on a 2-vCPU host; fixes how many
    # identical runs a timed measurement of --seconds makes
    nominal_seconds: float
    # spans that must record calls in the traced run: the mechanism the
    # workload exists to exercise
    target_spans: tuple[str, ...]
    fixed_specs: tuple[AgentSpec, ...] | None = None
    # independent task sets trained one after another in each training
    # run, so that one run averages over more than one draw of tasks and
    # training seeds (with fixed specs, over training seeds only)
    task_sets: int = 1
    evaluate_each_epoch: bool = False
    mock_llm: bool = False

    def train_config(self, seed: int, mock_dir: Path | None) -> TrainConfig:
        extra = {"mock_dir": str(mock_dir)} if mock_dir is not None else {}
        return TrainConfig(seed=seed, **self.config, **extra)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="a6-grid5",
        grid=5,
        nominal_seconds=20.0,
        config=dict(n_agents=3, epochs=100, steps_per_episode=100, mode="dynamic",
                    expert_provider="oracle"),
        target_spans=("training.update_agent", "nets.adam_step", "training.evaluate"),
        fixed_specs=A6_SPECS,
        task_sets=4,
        evaluate_each_epoch=True,
    ),
    Workload(
        name="crowd-grid10",
        grid=10,
        nominal_seconds=7.0,
        config=dict(n_agents=40, epochs=10, steps_per_episode=300, congestion=True,
                    update_epochs=1),
        target_spans=("training.rollout", "nets.policy_forward", "env.step", "env.observe"),
    ),
    Workload(
        name="regen-logit-grid15",
        grid=15,
        nominal_seconds=7.0,
        config=dict(n_agents=20, epochs=4, steps_per_episode=60, mode="logit-ppo",
                    demo_interval=1),
        task_sets=3,
        target_spans=("training.regenerate_demos", "demos.logit_expert", "graph.k_shortest_paths"),
    ),
    Workload(
        name="refine-mockllm-grid10",
        grid=10,
        nominal_seconds=18.0,
        config=dict(n_agents=12, epochs=60, steps_per_episode=50, expert_provider="llm",
                    demo_interval=1, update_epochs=1),
        task_sets=3,
        target_spans=("prompts.build_prompt", "llm.complete", "demos.parse_instructions",
                      "demos.prepare_executable", "prompts.refine_prompt"),
        mock_llm=True,
    ),
)}


@dataclass
class Inputs:
    specs: list[tuple[AgentSpec, ...]]   # one tuple per task set
    seeds: list[int]                     # the training seed of each task set
    # per task set: the scripted replies, and the validity (percent) and
    # fallback-agent count each regeneration must show
    mock_dirs: list[Path] = field(default_factory=list)
    expected_validity: list[list[float]] = field(default_factory=list)
    expected_fallbacks: list[list[int]] = field(default_factory=list)
    oracle_return: float = float("nan")


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    graph = grid_graph(workload.grid)
    n_agents = workload.config["n_agents"]
    seeds = [seed * workload.task_sets + i for i in range(workload.task_sets)]
    if workload.fixed_specs is not None:
        specs = [workload.fixed_specs] * workload.task_sets
    else:
        specs = [generate_agent_specs(graph, n_agents, s) for s in seeds]
    inputs = Inputs(specs=specs, seeds=seeds)
    if workload.evaluate_each_epoch:
        demos = dg.execute_demos(graph, specs[0], dg.oracle_expert(graph, specs[0]),
                                 step_limit=workload.config["steps_per_episode"])
        inputs.oracle_return = float(np.mean([t.episode_reward for t in demos.values()]))
    if workload.mock_llm:
        for task_set, (task_specs, task_seed) in enumerate(zip(specs, seeds)):
            mock_dir = workdir / f"mock{task_set}"
            mock_dir.mkdir(parents=True)
            validity, fallbacks = write_mock_replies(graph, task_specs, workload.config["epochs"],
                                                     task_seed, mock_dir)
            inputs.mock_dirs.append(mock_dir)
            inputs.expected_validity.append(validity)
            inputs.expected_fallbacks.append(fallbacks)
    return inputs


def write_mock_replies(graph, specs, replies: int, seed: int,
                       mock_dir: Path) -> tuple[list[float], list[int]]:
    """One scripted reply per regeneration, with known validity.

    A valid route is one of the first few k-shortest paths.  An invalid
    one stops short of the destination, skips a junction, or names a
    junction the map does not have.  Returns the validity (percent) and
    the fallback-agent count of each reply.
    """
    validity, fallbacks = [], []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    variants = {s.agent_id: [p for _, p in graph.k_shortest_paths(s.start, s.dest, MOCK_VARIANTS)]
                for s in specs}
    for r in range(replies):
        if r == MOCK_UNPARSABLE_REPLY:
            text = UNPARSABLE_TEXT
            n_valid = 0
        else:
            routes, n_valid = {}, 0
            for spec in specs:
                options = variants[spec.agent_id]
                route = [int(j) for j in options[rng.integers(len(options))]]
                if rng.random() < MOCK_VALID_SHARE:
                    n_valid += 1
                else:
                    kind = rng.integers(3)
                    if kind == 0:
                        route = route[:-1]
                    elif kind == 1:
                        route = route[:1] + route[2:]
                    else:
                        route = route[:-1] + [graph.node_count + 7, route[-1]]
                routes[str(spec.agent_id)] = route
            text = "Proposed routes:\n" + json.dumps(routes)
        (mock_dir / f"{r:04d}.txt").write_text(text)
        validity.append(100.0 * n_valid / len(specs))
        fallbacks.append(len(specs) - n_valid)
    return validity, fallbacks

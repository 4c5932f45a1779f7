"""In-memory span tracing around the public entry points of routecoach.

``Tracer.install`` replaces each traced function at every place it is
looked up: the attribute of its defining module, the same name in every
routecoach module that imported it (``training`` imports ``rollout``,
``dtw_distance``, ``build_prompt`` and ``refine_prompt`` by name), and the
class attribute for methods.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent); spans nest along the call stack,
so a span's self time is its duration minus that of its direct children.
Counts such as rows or DTW cells are taken from the arguments and results
at the same boundaries.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from routecoach import demos, env, graph, llm, losses, nets, prompts, trajectory, training

Observer = Callable[["Tracer", tuple, object], None]


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_mlp_forward(tracer, args, result):
    tracer.counts["nets.mlp_forward.rows"] += _rows(args[1])


def _count_mlp_backward(tracer, args, result):
    tracer.counts["nets.mlp_backward.rows"] += _rows(args[1])


def _count_dtw(tracer, args, result):
    tracer.counts["trajectory.dtw_cells"] += len(args[0]) * len(args[1])


def _count_route_query(tracer, args, result):
    # only queries made from outside the graph layer: Yen's algorithm
    # calls shortest_path itself
    if not tracer.inside("graph."):
        tracer.counts["graph.route_queries"] += 1
        tracer.route_keys.add((args[1], args[2]))


def _count_trajectories(tracer, args, result):
    trajectories = result.values() if isinstance(result, dict) else result
    tracer.counts["transitions"] += sum(len(t) for t in trajectories)


def _count_proposal(tracer, args, result):
    executable, validity, _tokens = result
    tracer.counts["proposals"] += 1
    tracer.validity_sum += validity
    tracer.counts["demos.fallback_agents"] += len(executable.fallback_agents)


def _count_prompt(tracer, args, result):
    tracer.counts["prompts.prompt_chars.last"] = len(result)


def _count_completion(tracer, args, result):
    tracer.counts["llm.tokens"] += result.token_count


# (span name, owner, attribute, observer); the layer is the name's prefix
FUNCTIONS = (
    ("training.train", training.Trainer, "train", None),
    ("training.run_epoch", training.Trainer, "run_epoch", None),
    ("training.rollout", training, "rollout", _count_trajectories),
    ("training.regenerate_demos", training.Trainer, "_regenerate_demos", None),
    ("training.propose_routes", training.Trainer, "_propose_routes", _count_proposal),
    ("training.update_agent", training, "update_agent", None),
    ("training.evaluate", training.Trainer, "evaluate", None),
    ("training.save_checkpoint", training, "save_checkpoint", None),
    ("nets.mlp_forward", nets, "mlp_forward", _count_mlp_forward),
    ("nets.mlp_backward", nets, "mlp_backward", _count_mlp_backward),
    ("nets.masked_log_softmax", nets, "masked_log_softmax", None),
    ("nets.policy_forward", nets, "policy_forward", None),
    ("nets.policy_forward_batch", nets, "policy_forward_batch", None),
    ("nets.policy_backward", nets, "policy_backward", None),
    ("nets.value_forward", nets, "value_forward", None),
    ("nets.value_backward", nets, "value_backward", None),
    ("nets.adam_step", nets, "adam_step", None),
    ("nets.neg", nets, "neg", None),
    ("nets.add", nets, "add", None),
    ("nets.save_params", nets, "save_params", None),
    ("env.reset", env.RouteEnv, "reset", None),
    ("env.step", env.RouteEnv, "step", None),
    ("env.observe", env.RouteEnv, "observe", None),
    ("losses.bootstrapped_returns", losses, "bootstrapped_returns", None),
    ("losses.advantages", losses, "advantages", None),
    ("losses.standardize", losses, "standardize", None),
    ("losses.value_loss", losses, "value_loss", None),
    ("losses.clipped_surrogate", losses, "clipped_surrogate", None),
    ("losses.clipped_surrogate_grad", losses, "clipped_surrogate_grad", None),
    ("losses.alpha_weight", losses, "alpha_weight", None),
    ("losses.mixed_policy_objective", losses, "mixed_policy_objective", None),
    ("losses.total_policy_objective", losses, "total_policy_objective", None),
    ("graph.shortest_path", graph.RoadGraph, "shortest_path", _count_route_query),
    ("graph.k_shortest_paths", graph.RoadGraph, "k_shortest_paths", _count_route_query),
    ("graph.distances_to", graph.RoadGraph, "distances_to", None),
    ("graph.distances_from", graph.RoadGraph, "distances_from", None),
    ("demos.parse_instructions", demos, "parse_instructions", None),
    ("demos.validate_route", demos, "validate_route", None),
    ("demos.compile_to_actions", demos, "compile_to_actions", None),
    ("demos.prepare_executable", demos, "prepare_executable", None),
    ("demos.oracle_expert", demos, "oracle_expert", None),
    ("demos.logit_expert", demos, "logit_expert", None),
    ("demos.execute_demos", demos, "execute_demos", _count_trajectories),
    ("trajectory.traj_to_feature_seq", trajectory, "traj_to_feature_seq", None),
    ("trajectory.dtw_distance", trajectory, "dtw_distance", _count_dtw),
    ("prompts.build_prompt", prompts, "build_prompt", _count_prompt),
    ("prompts.refine_prompt", prompts, "refine_prompt", None),
    ("prompts.count_tokens", prompts, "count_tokens", None),
    ("llm.complete", llm.MockChatCompleter, "complete", _count_completion),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _package_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "routecoach" or n.startswith("routecoach."))]


@dataclass
class SpanTable:
    """Per-name totals over a finished trace."""

    calls: dict[str, int]
    seconds: dict[str, float]
    self_seconds: dict[str, float]
    layer_seconds: dict[str, float]       # time inside the layer, nesting counted once
    epoch_children: dict[str, float]      # direct children of epoch spans
    epoch_seconds: float
    epoch_self_seconds: float


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    name_ids: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    counts: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    route_keys: set = field(default_factory=set)
    validity_sum: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def inside(self, prefix: str) -> bool:
        """True when the innermost open span belongs to ``prefix``."""
        return bool(self._stack) and self.names[self.name_ids[self._stack[-1]]].startswith(prefix)

    def wrap(self, name: str, fn, observer: Observer | None):
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name, owner, attr, observer in FUNCTIONS:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, observer)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> SpanTable:
        """Totals over the recorded spans."""
        ids = np.array(self.name_ids, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - covered
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        secs = np.bincount(ids, weights=dur, minlength=n)
        self_secs = np.bincount(ids, weights=self_dur, minlength=n)
        layers = [layer_of(name) for name in self.names]
        span_layer = np.array(layers, dtype=object)[ids]
        outermost = span_layer != np.where(has_parent, span_layer[np.maximum(parents, 0)], "")
        layer_seconds = {layer: float(dur[outermost & (span_layer == layer)].sum()) for layer in set(layers)}
        epoch_id = self.names.index("training.run_epoch")
        is_epoch = ids == epoch_id
        in_epoch = has_parent & is_epoch[np.maximum(parents, 0)]
        epoch_children = Counter()
        for i, s in zip(ids[in_epoch], dur[in_epoch]):
            epoch_children[self.names[i]] += float(s)
        return SpanTable(
            calls={nm: int(calls[i]) for i, nm in enumerate(self.names)},
            seconds={nm: float(secs[i]) for i, nm in enumerate(self.names)},
            self_seconds={nm: float(self_secs[i]) for i, nm in enumerate(self.names)},
            layer_seconds=layer_seconds,
            epoch_children=dict(epoch_children),
            epoch_seconds=float(dur[is_epoch].sum()),
            epoch_self_seconds=float(self_dur[is_epoch].sum()),
        )


"""Expert demonstrations: route sets, route checking, execution.

Route proposals arrive as per-agent waypoint lists (from a language-model
endpoint, the shortest-path oracle, or the logit route sampler), are
validated edge-by-edge, compiled to action indices, and replayed in the
environment to produce expert trajectories.  Proposals that fail
validation count against the validity rate and, by default, are replaced
by the oracle route so every agent always has an expert trajectory.
"""
from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .env import AgentSpec, RouteEnv
from .graph import RoadGraph
from .llm import ChatCompleter
from .trajectory import Trajectory, run_episode

LOGIT_CANDIDATES = 8
INVALID_ROUTE_FALLBACKS = ("oracle", "skip")  # what replaces an invalid route: its shortest path, or nothing


@dataclass
class ExecutableSet:
    """Each agent's full start -> destination junction route, in spec order.

    An empty route sits the agent out.  ``fallback_agents`` are the agents
    whose proposal was invalid and was replaced (or dropped).
    """

    routes: dict[int, tuple[int, ...]]
    fallback_agents: frozenset[int] = frozenset()

    def valid(self) -> list[bool]:
        """Each agent's validity flag for the proposal as given, in spec order."""
        return [agent_id not in self.fallback_agents for agent_id in self.routes]


@dataclass
class ParsedRoutes:
    """Raw per-agent waypoint proposals extracted from model text."""

    waypoints: dict[int, list[int]]
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class DemoQualityRecord:
    token_count: int
    validity_rate: float  # percentage in [0, 100]
    mean_reward: float
    mean_dtw: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.validity_rate <= 100.0:
            raise ValueError(f"validity rate {self.validity_rate} outside [0, 100]")


# -- parsing -------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?|```")


def _json_pairs(fragment: str) -> list[tuple]:
    """The (key, value) pairs of a JSON object, a repeated key included."""
    objects = []

    def keep(pairs: list[tuple]) -> dict:
        objects.append(pairs)
        return dict(pairs)

    json.loads(fragment, object_pairs_hook=keep)
    return objects[-1]  # the outermost object closes last


def _literal_pairs(fragment: str) -> list[tuple]:
    """The (key, value) pairs of a Python dict literal, a repeated key included."""
    ast.literal_eval(fragment)  # rejects anything but a literal, and an unhashable key
    node = ast.parse(fragment, mode="eval").body
    if not isinstance(node, ast.Dict):
        raise ValueError("not a mapping")
    return [(ast.literal_eval(k), ast.literal_eval(v)) for k, v in zip(node.keys, node.values)]


def _agent_id(key) -> int | None:
    """The agent a mapping key names: an ``int`` or a decimal string, never a bool; None for any other key."""
    if type(key) is int or (isinstance(key, str) and key.strip().isdecimal()):
        return int(key)
    return None


def _extract_mapping(text: str) -> list[tuple] | None:
    """The (key, value) pairs, in order, of the first balanced top-level ``{...}`` in ``text`` that
    parses and has a key naming an agent (see ``_agent_id``), else of the first that parses.

    Braces inside a quoted string, single or double, do not count; a backslash
    escapes the character after it there.  Quotes open strings only inside a
    fragment, so an apostrophe in the prose between fragments does not.  A
    fragment nested too deep for the parsers is unparsable; a ``{`` that never
    closes ends the search.
    """
    cleaned = _FENCE_RE.sub("", text)
    first = None
    start = cleaned.find("{")
    while start >= 0:
        depth, quote, escaped = 0, "", False
        for end in range(start, len(cleaned)):
            char = cleaned[end]
            if quote:
                if char == quote and not escaped:
                    quote = ""
                escaped = not escaped and char == "\\"
            elif char in "\"'":
                quote = char
            elif char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    break
        else:
            break
        fragment = cleaned[start : end + 1]
        for parse in (_json_pairs, _literal_pairs):
            try:
                pairs = parse(fragment)
            # TypeError: an unhashable key; the parsers report nesting too deep as RecursionError or MemoryError
            except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
                continue
            if any(_agent_id(key) is not None for key, _ in pairs):
                return pairs
            if first is None:
                first = pairs
            break
        start = cleaned.find("{", end + 1)
    return first


def parse_instructions(text: str, n_agents: int, graph: RoadGraph) -> ParsedRoutes:
    """Extract per-agent waypoint lists from raw model output.

    Accepts a strict JSON object or a Python-style single-quoted mapping.
    An agent id is an ``int`` or an integer string.  Problems (no mapping,
    a bad, unknown or repeated agent id, unknown junction, malformed list)
    are recorded as error strings carrying the offending fragment; they
    feed the validity-rate accounting instead of raising.  An agent named
    twice (say ``1`` and ``"1"``) gets no waypoints.
    """
    result = ParsedRoutes(waypoints={})
    mapping = _extract_mapping(text)
    if mapping is None:
        result.errors.append(f"no parsable agent-route mapping in: {text[:120]!r}")
        return result
    seen = set()
    for key, value in mapping:
        agent_id = _agent_id(key)
        if agent_id is None:
            result.errors.append(f"unparsable agent id {key!r}")
            continue
        if agent_id in seen:
            result.errors.append(f"agent {agent_id}: more than one route")
            result.waypoints.pop(agent_id, None)
            continue
        seen.add(agent_id)
        if not 0 <= agent_id < n_agents:
            result.errors.append(f"unknown agent id {agent_id}")
            continue
        if not isinstance(value, (list, tuple)):
            result.errors.append(f"agent {agent_id}: route is not a list: {value!r}")
            continue
        waypoints = []
        bad = None
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                bad = f"agent {agent_id}: non-integer waypoint {item!r}"
                break
            if item not in graph.nodes:
                bad = f"agent {agent_id}: unknown junction {item}"
                break
            waypoints.append(item)
        if bad is not None:
            result.errors.append(bad)
            continue
        result.waypoints[agent_id] = waypoints
    return result


# -- validation / compilation ----------------------------------------------------

def _route_slots(graph: RoadGraph, spec: AgentSpec, waypoints: Sequence[int]) -> list[int] | None:
    """The outgoing-edge index of each consecutive junction pair; None unless
    the waypoints run start -> dest along existing directed edges."""
    if len(waypoints) < 2 or waypoints[0] != spec.start or waypoints[-1] != spec.dest:
        return None
    slots = []
    for u, v in zip(waypoints, waypoints[1:]):
        slot = graph.slot(u, v)
        if slot is None:
            return None
        slots.append(slot)
    return slots


def validate_route(graph: RoadGraph, spec: AgentSpec, waypoints: Sequence[int]) -> bool:
    """True iff the waypoints run start -> dest along existing directed edges."""
    return _route_slots(graph, spec, waypoints) is not None


def compile_to_actions(graph: RoadGraph, spec: AgentSpec, waypoints: Sequence[int]) -> list[int]:
    """Map each consecutive junction pair to its outgoing-edge index."""
    actions = _route_slots(graph, spec, waypoints)
    if actions is None:
        raise ValueError(f"agent {spec.agent_id}: waypoints {list(waypoints)} do not form a valid route")
    return actions


def prepare_executable(
    graph: RoadGraph,
    specs: Sequence[AgentSpec],
    parsed: ParsedRoutes,
    fallback: str = "oracle",
) -> ExecutableSet:
    """Turn raw proposals into an executable set, substituting bad routes.

    An agent without a valid proposal is a fallback agent: it gets its
    shortest path (``"oracle"``, ``ValueError`` if it has none) or sits out
    (``"skip"``), and still counts as invalid in ``ExecutableSet.valid()``.
    """
    if fallback not in INVALID_ROUTE_FALLBACKS:
        raise ValueError(f"unknown fallback policy {fallback!r}")
    routes: dict[int, tuple[int, ...]] = {}
    fallback_agents = set()
    for spec in specs:
        waypoints = parsed.waypoints.get(spec.agent_id)
        if waypoints is not None and validate_route(graph, spec, waypoints):
            routes[spec.agent_id] = tuple(waypoints)
            continue
        fallback_agents.add(spec.agent_id)
        routes[spec.agent_id] = _oracle_route(graph, spec) if fallback == "oracle" else ()
    return ExecutableSet(routes, frozenset(fallback_agents))


def propose_from_text(
    completer: ChatCompleter,
    prompt: str,
    graph: RoadGraph,
    specs: Sequence[AgentSpec],
    fallback: str = "oracle",
) -> tuple[ExecutableSet, int]:
    """Ask a language model for routes and make its reply executable.

    Returns the executable set and the completion's token count.
    ``LlmError`` from the completer propagates.
    """
    reply = completer.complete(prompt)
    parsed = parse_instructions(reply.text, len(specs), graph)
    return prepare_executable(graph, specs, parsed, fallback=fallback), reply.token_count


def validity_rate(valid_flags: Sequence[bool]) -> float:
    """Percentage of valid proposals; exact, e.g. 3 of 4 -> 75.0."""
    flags = list(valid_flags)
    if not flags:
        return 0.0
    return 100.0 * sum(flags) / len(flags)


# -- offline experts ---------------------------------------------------------------

def _oracle_route(graph: RoadGraph, spec: AgentSpec) -> tuple[int, ...]:
    """The agent's shortest path; ``ValueError`` when its destination is unreachable."""
    sp = graph.shortest_path(spec.start, spec.dest)
    if sp is None:
        raise ValueError(f"agent {spec.agent_id}: destination unreachable")
    return tuple(sp[1])


def oracle_expert(graph: RoadGraph, specs: Sequence[AgentSpec]) -> ExecutableSet:
    """Shortest-path routes for every agent; always valid."""
    return ExecutableSet({spec.agent_id: _oracle_route(graph, spec) for spec in specs})


def logit_expert(
    graph: RoadGraph,
    specs: Sequence[AgentSpec],
    temperature: float,
    rng: np.random.Generator,
) -> ExecutableSet:
    """Sample routes with probability proportional to exp(-cost / temperature).

    Candidates are up to 8 loopless shortest paths per agent; low
    temperature concentrates on the cheapest route.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    routes = {}
    for spec in specs:
        candidates = graph.k_shortest_paths(spec.start, spec.dest, LOGIT_CANDIDATES)
        if not candidates:
            raise ValueError(f"agent {spec.agent_id}: no route to destination")
        costs = np.array([c for c, _ in candidates])
        logits = -costs / temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        routes[spec.agent_id] = tuple(candidates[rng.choice(len(candidates), p=probs)][1])
    return ExecutableSet(routes)


# -- execution ----------------------------------------------------------------------

def replay(env: RouteEnv, executable: ExecutableSet) -> dict[int, Trajectory]:
    """Replay compiled routes in ``env`` from its initial state; {agent id: trajectory}.

    Agents whose route is empty sit the episode out and contribute a
    single-point trajectory.  A replay records no log-probabilities: the
    update takes the policy's own.
    """
    plans = {spec.agent_id: iter(compile_to_actions(env.graph, spec, executable.routes[spec.agent_id]))
             for spec in env.specs if executable.routes[spec.agent_id]}

    def choose(i: int, junction: int) -> int:
        return next(plans[i])

    return dict(enumerate(run_episode(env, choose, sit_out=set(range(env.n_agents)) - plans.keys())))


def execute_demos(
    graph: RoadGraph,
    specs: Sequence[AgentSpec],
    executable: ExecutableSet,
    **env_kwargs,
) -> dict[int, Trajectory]:
    """``replay`` in a new environment; ``env_kwargs`` are its ``RouteEnv`` settings."""
    return replay(RouteEnv(graph, specs, **env_kwargs), executable)

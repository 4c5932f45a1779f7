"""Prompt construction and iterative refinement for route-proposing models.

The prompt is a deterministic serialization of the task, the map, the
agent assignments and the required output format, followed by one
feedback section per refinement round.  A state keeps only the rendered
text and the round count: refining appends a round's section to the text
and never rewrites earlier content, so successive prompts share a
byte-identical prefix and ``build_prompt`` renders nothing after the header.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .env import AgentSpec
from .graph import RoadGraph

DEFAULT_TASK = (
    "You route vehicles through a directed road network. Each agent must "
    "travel from its start junction to its destination junction along "
    "existing directed edges, as cheaply as possible."
)

OUTPUT_CONTRACT = (
    "Respond with a single JSON object mapping each agent id to its full "
    'route as a list of junction ids, e.g. {"0": [0, 1, 2]}. The route '
    "must begin at the agent's start junction, end at its destination, "
    "and every consecutive pair must be joined by a directed edge."
)


@dataclass(frozen=True)
class PromptState:
    """The prompt as one append-only text and the number of feedback rounds in it.

    ``text`` is empty until the first ``build_prompt`` renders the header into
    it; ``refine_prompt`` returns a state whose text is this one's plus a round.
    """
    graph: RoadGraph
    specs: tuple[AgentSpec, ...]
    task: str = DEFAULT_TASK
    rounds: int = 0
    text: str = field(default="", repr=False)


def count_tokens(text: str) -> int:
    """Whitespace-chunk token count, used when no endpoint usage is reported."""
    return len(text.split())


def _number(x: float) -> str:
    """``x`` as ``:g`` prints it when that reads back as ``x``, else its shortest exact form."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _header(state: PromptState) -> str:
    lines = [state.task, "", "Junctions (id: x, y):"]
    for j, (x, y) in sorted(state.graph.nodes.items()):
        lines.append(f"  {j}: ({_number(x)}, {_number(y)})")
    lines.append("")
    lines.append("Directed edges (from -> to, length):")
    for j in sorted(state.graph.nodes):
        out = state.graph.out_edges(j)
        if out:
            targets = ", ".join(f"{e.dst} ({_number(e.length)})" for e in out)
            lines.append(f"  {j} -> {targets}")
    lines.append("")
    lines.append("Agents (id: start -> destination, departs at step):")
    for spec in state.specs:
        lines.append(f"  {spec.agent_id}: {spec.start} -> {spec.dest}, departs at {spec.depart_time}")
    lines.append("")
    lines.append(OUTPUT_CONTRACT)
    return "\n".join(lines)


def build_prompt(state: PromptState) -> str:
    """The prompt's text, the stored object itself; the header is rendered on the first call."""
    if not state.text:
        object.__setattr__(state, "text", _header(state))  # a cache fill, as a cached_property would do
    return state.text


def refine_prompt(
    state: PromptState,
    agent_summary: Mapping[int, tuple[Sequence[int], float]],
    expert_summary: Mapping[int, tuple[Sequence[int], float]],
    dtw_per_agent: Mapping[int, float],
) -> PromptState:
    """Append one numbered feedback round after a blank line; earlier text is kept."""
    rounds = state.rounds + 1
    lines = [f"--- Feedback round {rounds} ---"]
    for agent_id, (route, reward) in sorted(agent_summary.items()):
        lines.append(f"  agent {agent_id} policy route {list(route)} reward {float(reward):.3f}")
    for agent_id, (route, reward) in sorted(expert_summary.items()):
        lines.append(f"  agent {agent_id} expert route {list(route)} reward {float(reward):.3f}")
    for agent_id, d in sorted(dtw_per_agent.items()):
        lines.append(f"  agent {agent_id} trajectory DTW distance {float(d):.3f}")
    lines.append(
        "  Improve any invalid or low-reward routes; keep routes that "
        "already reach their destination cheaply."
    )
    section = "\n".join(lines)
    return replace(state, rounds=rounds, text=f"{build_prompt(state)}\n\n{section}")

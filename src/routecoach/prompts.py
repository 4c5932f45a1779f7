"""Prompt construction and iterative refinement for route-proposing models.

The prompt is a deterministic serialization of the task, the map, the
agent assignments and the required output format, followed by an
append-only list of refinement records.  Adding a record never rewrites
earlier content, so successive prompts share a byte-identical prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
class RefinementRecord:
    phase: int
    agent_routes: tuple[tuple[int, tuple[int, ...], float], ...]   # (agent, route, reward)
    expert_routes: tuple[tuple[int, tuple[int, ...], float], ...]
    dtw: tuple[tuple[int, float], ...]

    @cached_property
    def text(self) -> str:
        """This record's section of the prompt, rendered once."""
        lines = [f"--- Feedback round {self.phase} ---"]
        for agent_id, route, reward in self.agent_routes:
            lines.append(f"  agent {agent_id} policy route {list(route)} reward {reward:.3f}")
        for agent_id, route, reward in self.expert_routes:
            lines.append(f"  agent {agent_id} expert route {list(route)} reward {reward:.3f}")
        for agent_id, d in self.dtw:
            lines.append(f"  agent {agent_id} trajectory DTW distance {d:.3f}")
        lines.append(
            "  Improve any invalid or low-reward routes; keep routes that "
            "already reach their destination cheaply."
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class PromptState:
    graph: RoadGraph
    specs: tuple[AgentSpec, ...]
    task: str = DEFAULT_TASK
    records: tuple[RefinementRecord, ...] = ()


def count_tokens(text: str) -> int:
    """Whitespace-chunk token count, used when no endpoint usage is reported."""
    return len(text.split())


def build_prompt(state: PromptState) -> str:
    lines = [state.task, "", "Junctions (id: x, y):"]
    for j, (x, y) in sorted(state.graph.nodes.items()):
        lines.append(f"  {j}: ({x:g}, {y:g})")
    lines.append("")
    lines.append("Directed edges (from -> to, length):")
    for j in sorted(state.graph.nodes):
        out = state.graph.out_edges(j)
        if out:
            targets = ", ".join(f"{e.dst} ({e.length:g})" for e in out)
            lines.append(f"  {j} -> {targets}")
    lines.append("")
    lines.append("Agents (id: start -> destination, departs at step):")
    for spec in state.specs:
        lines.append(f"  {spec.agent_id}: {spec.start} -> {spec.dest}, departs at {spec.depart_time}")
    lines.append("")
    lines.append(OUTPUT_CONTRACT)
    # each record follows a blank line
    return "\n\n".join(["\n".join(lines), *(record.text for record in state.records)])


def refine_prompt(
    state: PromptState,
    agent_summary: Mapping[int, tuple[Sequence[int], float]],
    expert_summary: Mapping[int, tuple[Sequence[int], float]],
    dtw_per_agent: Mapping[int, float],
) -> PromptState:
    """Append one phase-stamped feedback record; earlier records are kept."""
    record = RefinementRecord(
        phase=len(state.records) + 1,
        agent_routes=tuple((a, tuple(route), float(r)) for a, (route, r) in sorted(agent_summary.items())),
        expert_routes=tuple((a, tuple(route), float(r)) for a, (route, r) in sorted(expert_summary.items())),
        dtw=tuple((a, float(d)) for a, d in sorted(dtw_per_agent.items())),
    )
    return PromptState(
        graph=state.graph,
        specs=state.specs,
        task=state.task,
        records=state.records + (record,),
    )

"""The demonstration pipeline: propose, parse, validate, execute, refine.

Runs the offline experts (shortest-path oracle and the logit route
sampler), then feeds a scripted "model output" through the parsing and
validation stages a live chat endpoint would go through, including an
invalid route that falls back to the oracle, and appends one feedback
round to the prompt.
"""
import tempfile
from pathlib import Path

import numpy as np

from routecoach import AgentSpec, RouteEnv, grid_graph
from routecoach import demos as dg
from routecoach.llm import MockChatCompleter
from routecoach.prompts import PromptState, build_prompt, count_tokens, refine_prompt

grid = grid_graph(5)
specs = (AgentSpec(0, 0, 24), AgentSpec(1, 4, 20))

oracle = dg.oracle_expert(grid, specs)
print("oracle routes:")
for spec in specs:
    print(f"  agent {spec.agent_id}: {list(oracle.routes[spec.agent_id])}")

rng = np.random.default_rng(0)
print("\nlogit-sampled routes (temperature 2: spread; 0.001: greedy):")
for temp in (2.0, 0.001):
    routes = dg.logit_expert(grid, specs, temperature=temp, rng=rng)
    print(f"  T={temp}: agent 0 -> {list(routes.routes[0])}")

# the prompt is one append-only text; each refine_prompt appends a feedback round
state = PromptState(graph=grid, specs=specs)
prompt = build_prompt(state)
print(f"\nprompt preview ({count_tokens(prompt)} whitespace tokens, {state.rounds} feedback rounds):")
print("  " + "\n  ".join(prompt.splitlines()[:6]) + "\n  ...")

# a scripted reply: agent 0 valid, agent 1 references a missing edge
with tempfile.TemporaryDirectory() as tmp:
    reply_file = Path(tmp) / "000.txt"
    reply_file.write_text('{"0": [0, 1, 2, 3, 4, 9, 14, 19, 24], "1": [4, 20]}')
    completer = MockChatCompleter(tmp)
    reply = completer.complete(prompt)

parsed = dg.parse_instructions(reply.text, len(specs), grid)
print("\nparsed waypoints:", parsed.waypoints)
print("parse errors:", parsed.errors)
executable = dg.prepare_executable(grid, specs, parsed, fallback="oracle")
print("validity flags:", executable.valid(), "->", f"{dg.validity_rate(executable.valid()):.1f}% valid")
print("agent 1 fell back to the oracle:", 1 in executable.fallback_agents)

trajectories = dg.replay(RouteEnv(grid, specs), executable)
for i, traj in trajectories.items():
    print(f"executed demo, agent {i}: reward {traj.episode_reward:.1f}, "
          f"arrived {traj.arrived}, route {traj.junction_path.tolist()}")

# one feedback round: a (scripted) looping policy route for agent 0 against its
# executed demonstration, appended after the first prompt's text
refined = refine_prompt(state, {0: ([0, 1, 0], -2.0)},
                        {0: (trajectories[0].junction_path.tolist(), trajectories[0].episode_reward)},
                        {0: 3.5})
text = build_prompt(refined)
print(f"\nafter {refined.rounds} feedback round, the first prompt is a prefix of the new one: "
      f"{text.startswith(prompt)}; appended:")
print("  " + "\n  ".join(text[len(prompt):].strip("\n").splitlines()))

"""Tour of the road graphs and the routing environment.

Builds the bundled fixture maps, inspects shortest paths and edge scores,
and walks one agent along the chain 0 -> 1 -> 2 to show the reward
decomposition: time penalty, potential shaping, arrival bonus.
"""
import numpy as np

from routecoach import AgentSpec, RouteEnv, grid_graph, hilly_graph, line_graph
from routecoach.trajectory import run_episode

grid = grid_graph(5)
print(f"5x5 grid: {grid.node_count} junctions, {len(grid.edges)} directed edges, "
      f"max out-degree {grid.max_out_degree}, diameter {grid.diameter}")
cost, path = grid.shortest_path(0, 24)
print(f"corner to corner: cost {cost}, route {path}")

hilly = hilly_graph()
print(f"\nhilly map: {hilly.node_count} junctions, {len(hilly.edges)} edges "
      f"(irregular lengths, some one-way)")
print("0 -> 8:", hilly.shortest_path(0, 8))
print("8 -> 0:", hilly.shortest_path(8, 0), " (asymmetric by design)")

print("\nthree cheapest loopless routes 0 -> 8:")
for c, p in hilly.k_shortest_paths(0, 8, 3):
    print(f"  cost {c:.1f}: {p}")

# -- one episode on the 3-junction chain ------------------------------------
line = line_graph((1.0, 1.0))
spec = AgentSpec(agent_id=0, start=0, dest=2)
env = RouteEnv(line, (spec,))
obs_table, mask_table = env.agent_tables(0)  # the observation and mask at every junction

print("\nobservation layout at the start (2 + 2m slots + action mask):")
print("  vector:", obs_table[spec.start], " mask:", mask_table[spec.start])
print("  slot 2 is the first edge's score, -(length + remaining distance) / diameter:",
      obs_table[spec.start, 2], "=", -line.shortest_path(0, 2)[0] / line.diameter)

(traj,) = run_episode(env, lambda agent, junction: 0)  # always take the first edge
for step, (junction, reward) in enumerate(zip(traj.junction_path[1:], traj.rewards), start=1):
    print(f"  step {step}: at junction {junction}, reward {reward:+.1f}")
print(f"episode reward {traj.episode_reward:.1f} = -0.1*2 steps + 2.0 shaping + 10 arrival bonus")

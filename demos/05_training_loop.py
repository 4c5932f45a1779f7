"""A full (small) training run with expert mixing, plus plain PPO.

Trains 2 agents on a 3x3 grid, once with oracle demonstrations and the
dynamic mixing weight, once as independent PPO, and compares greedy
evaluation afterwards.  Takes well under a minute.
"""
import numpy as np

from routecoach import AgentSpec, TrainConfig, Trainer, grid_graph

grid = grid_graph(3)
specs = (AgentSpec(0, 0, 8), AgentSpec(1, 8, 0))

for mode, provider in (("dynamic", "oracle"), ("ippo", "none")):
    cfg = TrainConfig(n_agents=2, epochs=60, steps_per_episode=40,
                      mode=mode, expert_provider=provider, seed=0)
    trainer = Trainer(cfg, grid, specs)

    print(f"\n=== mode {mode} ===")
    for epoch in range(cfg.epochs):
        m = trainer.run_epoch()
        if m.epoch % 10 == 0 or m.epoch == 1:
            alpha = float(np.mean(m.alpha))
            dtw = float(np.mean(m.dtw))
            print(f"  epoch {m.epoch:3d}: reward {m.mean_reward_a:7.3f}  "
                  f"alpha {alpha:6.3f}  dtw {dtw:7.2f}")
    result = trainer.evaluate(5)
    print(f"  greedy evaluation: mean {result.mean:.2f}")

print("\nThe optimal return here is 10.9 + 3 * 0.9 = 13.6 per agent.")

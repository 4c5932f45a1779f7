"""The learning core: masked policy, analytic gradients, loss surface.

Verifies the pieces you would otherwise take on faith: the zero-initialized
final layer gives an exactly uniform masked policy, the hand-derived
backward pass agrees with finite differences, and the clipped surrogate
behaves per its defining identities.
"""
import numpy as np

from routecoach import bootstrapped_returns, clipped_surrogate, standardize
from routecoach import nets

rng = np.random.default_rng(0)

params = nets.init_mlp(rng, in_dim=10, out_dim=4)
obs = rng.normal(size=10)
fresh = nets.policy_forward_tape(params, obs, np.array([True, True, False, True]))
print("fresh policy over 3 valid actions:", np.round(fresh.probs[0], 4),
      "entropy", round(float(fresh.entropy[0]), 4), "= ln 3 =", round(np.log(3), 4))

# gradient check along one random coordinate
params.weights[-1][...] = rng.normal(scale=0.3, size=params.weights[-1].shape)
x = rng.normal(size=(5, 10))
up = rng.normal(size=(5, 4))
# the backward training runs: a forward that keeps its activations, then the
# parameter gradients of one segment of rows (here the whole batch), which
# overwrites that segment's hidden activations on the tape
tape = nets.mlp_forward_tape(params, x)
analytic = nets.mlp_grads(params, tape, up, slice(None), params.like(np.empty_like(params.data)))
h = 1e-5
w = params.weights[0]
w[3, 7] += h
up_val = float((nets.mlp_forward(params, x) * up).sum())
w[3, 7] -= 2 * h
down_val = float((nets.mlp_forward(params, x) * up).sum())
w[3, 7] += h
numeric = (up_val - down_val) / (2 * h)
print(f"\ngradient check W0[3,7]: analytic {analytic.weights[0][3, 7]:+.8f} "
      f"vs finite difference {numeric:+.8f}")

# returns and the clipped surrogate
rewards = np.array([1.0, 1.0, 1.0])
print("\nbootstrapped returns, gamma 0.5, tail value 2:",
      bootstrapped_returns(rewards, 0.5, 2.0))

logp_old = np.zeros(3)
adv = standardize(np.array([2.0, 0.0, 1.0]))
print("surrogate at unchanged policy equals mean advantage:",
      round(clipped_surrogate(logp_old, logp_old, adv, 0.2), 12),
      "== ", round(float(adv.mean()), 12))
print("ratio 1.5 with advantage +1 clips at 1.2:",
      clipped_surrogate(np.array([np.log(1.5)]), np.array([0.0]), np.array([1.0]), 0.2))

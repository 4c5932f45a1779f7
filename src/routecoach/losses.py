"""Scalar learning quantities: returns, advantages, surrogates, mixing.

Sign convention: surrogate, mixed and total objectives are values to
MAXIMIZE; the trainer feeds their negated gradients to the optimizer.
The entropy term is added (not subtracted) so exploration is rewarded.
"""
from __future__ import annotations

import numpy as np

STD_EPS = 1e-8


def bootstrapped_returns(rewards: np.ndarray, gamma: float, tail_value: float) -> np.ndarray:
    """Finite-horizon discounted returns with a bootstrapped tail.

    ``R_t = sum_k gamma^k r_{t+k} + gamma^(T-t) * tail_value``.  Pass
    ``tail_value=0`` for true terminals (arrival), the terminal-state value
    estimate otherwise.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 1 or rewards.size == 0:
        raise ValueError("rewards must be a non-empty 1-d array")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    returns = np.empty_like(rewards)
    acc = float(tail_value)
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns


def advantages(returns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Raw advantages: return minus value estimate, elementwise."""
    returns = np.asarray(returns, dtype=float)
    values = np.asarray(values, dtype=float)
    if returns.shape != values.shape:
        raise ValueError(f"length mismatch: returns {returns.shape} vs values {values.shape}")
    return returns - values


def standardize(x: np.ndarray) -> np.ndarray:
    """Shift/scale to zero mean and unit standard deviation (``STD_EPS`` keeps a constant ``x`` finite)."""
    x = np.asarray(x, dtype=float)
    return (x - x.mean()) / (x.std() + STD_EPS)


def squared_errors(values: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Per-step ``(value - return)^2``; the value loss is their mean over a batch."""
    values = np.asarray(values, dtype=float)
    returns = np.asarray(returns, dtype=float)
    if values.size == 0:
        raise ValueError("empty batch")
    if values.shape != returns.shape:
        raise ValueError("length mismatch")
    diff = values - returns
    return diff * diff


def value_loss(values: np.ndarray, returns: np.ndarray) -> float:
    return float(np.mean(squared_errors(values, returns)))


def surrogate_terms(logp_new, logp_old, adv, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-step clipped surrogate ``min(r * A, clip(r) * A)`` and its derivative in ``logp_new``.

    A batch's objective is the mean of the first, its gradient the second over the batch
    length.  The derivative is zero where the clip is active on the selected branch, i.e.
    where pushing the ratio further cannot improve the objective.
    """
    ratio, adv = _ratio(logp_new, logp_old, adv, epsilon)
    gain = ratio * adv
    clipped = np.clip(ratio, 1.0 - epsilon, 1.0 + epsilon)
    clipped_out = ((adv >= 0) & (ratio > 1.0 + epsilon)) | ((adv < 0) & (ratio < 1.0 - epsilon))
    return np.minimum(gain, clipped * adv), np.where(clipped_out, 0.0, gain)


def clipped_surrogate(logp_new: np.ndarray, logp_old: np.ndarray, adv: np.ndarray, epsilon: float) -> float:
    """Mean clipped importance-weighted advantage (an objective to maximize)."""
    return float(np.mean(surrogate_terms(logp_new, logp_old, adv, epsilon)[0]))


def clipped_surrogate_grad(logp_new: np.ndarray, logp_old: np.ndarray, adv: np.ndarray,
                           epsilon: float) -> np.ndarray:
    """d(surrogate)/d(logp_new) per step, mean folded in."""
    grad = surrogate_terms(logp_new, logp_old, adv, epsilon)[1]
    return grad / grad.size


def _ratio(logp_new, logp_old, adv, epsilon) -> tuple[np.ndarray, np.ndarray]:
    logp_new = np.asarray(logp_new, dtype=float)
    logp_old = np.asarray(logp_old, dtype=float)
    adv = np.asarray(adv, dtype=float)
    if not (logp_new.shape == logp_old.shape == adv.shape):
        raise ValueError("length mismatch")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    ratio = np.exp(logp_new - logp_old)
    if not np.isfinite(ratio).all():
        raise FloatingPointError("non-finite importance ratio")
    return ratio, adv


def alpha_weight(k: int, total_epochs: int, dtw: float) -> float:
    """Mixing weight ``exp(-(k / K) * dtw)``; 1 at dtw 0, decays with both.

    ``k`` is the 1-based current epoch.  Large trajectory disagreement
    pushes the weight toward the expert loss; as agent and expert
    trajectories align the weight returns to the agent's own loss.
    """
    if not 1 <= k <= total_epochs:
        raise ValueError(f"epoch {k} outside 1..{total_epochs}")
    if dtw < 0:
        raise ValueError(f"negative DTW distance {dtw}")
    return float(np.exp(-(k / total_epochs) * dtw))


def mixed_policy_objective(agent_obj: float, expert_obj: float, alpha: float) -> float:
    """Convex combination ``alpha * agent + (1 - alpha) * expert``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return alpha * agent_obj + (1.0 - alpha) * expert_obj


def total_policy_objective(mixed: float, mean_entropy: float, beta: float) -> float:
    """Entropy-regularized objective: ``mixed + beta * mean_entropy``."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    return mixed + beta * mean_entropy

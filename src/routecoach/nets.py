"""Tiny differentiable function approximators, no autodiff.

One fixed architecture everywhere: input -> 128 -> 128 -> output with tanh
hidden activations, double precision.  Gradients are hand-derived for this
architecture, which keeps them exactly checkable against finite
differences.  The final layer starts at zero so an untrained policy is
exactly uniform over valid actions and an untrained value head outputs 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

HIDDEN = (128, 128)
CHECKPOINT_VERSION = 1


class NetError(ValueError):
    pass


class MlpParams:
    """Per-layer weights and biases, stored as views into one flat vector.

    ``data`` holds every weight matrix and then every bias vector, in layer
    order and row-major, which is also the layout ``flat()`` returns.
    ``weights`` and ``biases`` are tuples of views into ``data``, so writing
    into a layer writes the vector and an optimizer can update every layer
    with one operation on ``data``.  Also used as the gradient container.
    """

    __slots__ = ("data", "weights", "biases")

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        """Packs copies of the given arrays into a new vector."""
        if len(weights) != len(biases):
            raise NetError("weights and biases must pair up")
        for w, b in zip(weights, biases):
            if np.shape(w)[1] != np.shape(b)[0]:
                raise NetError(f"bias shape {np.shape(b)} does not match weight shape {np.shape(w)}")
        arrays = (*weights, *biases)
        self._bind(np.empty(sum(np.size(a) for a in arrays)), [np.shape(a) for a in arrays])
        for view, a in zip(self.weights + self.biases, arrays):
            view[...] = a

    def _bind(self, data: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> None:
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(data[offset:offset + size].reshape(shape))
            offset += size
        half = len(views) // 2
        self.data, self.weights, self.biases = data, tuple(views[:half]), tuple(views[half:])

    @classmethod
    def zeros(cls, weight_shapes: Sequence[tuple[int, int]]) -> "MlpParams":
        """Zero parameters for layers with the given weight shapes."""
        params = cls.__new__(cls)
        shapes = [*weight_shapes, *((cols,) for _, cols in weight_shapes)]
        params._bind(np.zeros(sum(math.prod(shape) for shape in shapes)), shapes)
        return params

    def like(self, data: np.ndarray) -> "MlpParams":
        """Parameters with this one's layer shapes, as views into ``data``."""
        other = MlpParams.__new__(MlpParams)
        other._bind(data, [a.shape for a in self.weights + self.biases])
        return other

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpParams":
        return self.like(self.data.copy())

    def flat(self) -> np.ndarray:
        """A copy of ``data``: a snapshot that later updates do not touch."""
        return self.data.copy()


@dataclass
class AdamState:
    m: MlpParams
    v: MlpParams
    t: int = 0


@dataclass(frozen=True)
class PolicyOutput:
    log_probs: np.ndarray  # (m,), -inf on masked slots
    probs: np.ndarray      # (m,), exactly 0 on masked slots
    entropy: float


class MlpTape(NamedTuple):
    """Inputs and activations of one batched forward pass, for the backward."""

    x: np.ndarray    # (N, in)
    h1: np.ndarray   # (N, 128)
    h2: np.ndarray   # (N, 128)
    out: np.ndarray  # (N, out)


class PolicyTape(NamedTuple):
    """A policy forward pass over a batch, kept for the backward."""

    mlp: MlpTape
    masks: np.ndarray      # (N, m) bool
    log_probs: np.ndarray  # (N, m)
    probs: np.ndarray      # (N, m)
    entropy: np.ndarray    # (N,)


def init_mlp(rng: np.random.Generator, in_dim: int, out_dim: int) -> MlpParams:
    """Scaled-uniform hidden layers, zero final layer, zero biases."""
    dims = (in_dim, *HIDDEN, out_dim)
    params = MlpParams.zeros(list(zip(dims, dims[1:])))
    for w in params.weights[:-1]:
        # rng.uniform(-limit, limit) drawn straight into the vector: numpy
        # computes low + (high - low) * u from the same doubles u, so the
        # values are the same bits without a temporary array per layer
        limit = np.sqrt(6.0 / w.shape[0])
        rng.random(out=w)
        w *= 2 * limit
        w -= limit
    return params


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(m=params.like(np.zeros_like(params.data)),
                     v=params.like(np.zeros_like(params.data)), t=0)


# -- forward / backward ----------------------------------------------------
#
# Each backward is a forward that keeps its activations (``*_forward_tape``)
# followed by a backward that takes them (``mlp_backward_tape``, with
# ``policy_upstream`` in front for the policy), so a caller that already
# ran the forward on the current parameters can skip running it again.

def mlp_forward_tape(params: MlpParams, x: np.ndarray) -> MlpTape:
    """Forward pass over a batch (N, dim), keeping the activations."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h1 = np.tanh(x @ params.weights[0] + params.biases[0])
    h2 = np.tanh(h1 @ params.weights[1] + params.biases[1])
    return MlpTape(x, h1, h2, h2 @ params.weights[2] + params.biases[2])


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Raw network outputs for a single input (dim,) or a batch (N, dim)."""
    x = np.asarray(x, dtype=float)
    out = mlp_forward_tape(params, x).out
    return out[0] if x.ndim == 1 else out


def mlp_backward_tape(params: MlpParams, tape: MlpTape, upstream: np.ndarray) -> MlpParams:
    """Gradients of ``sum(upstream * tape.out)`` w.r.t. every parameter.

    ``tape`` must come from ``mlp_forward_tape`` on these same parameters.
    The gradients are written straight into one new flat vector.
    """
    x, h1, h2, _ = tape
    if x.shape[0] == 0:
        raise NetError("empty batch")
    if upstream.shape != (x.shape[0], params.out_dim):
        raise NetError(f"upstream shape {upstream.shape} does not match batch/out dims")
    grads = params.like(np.empty_like(params.data))
    (dW0, dW1, dW2), (db0, db1, db2) = grads.weights, grads.biases
    np.matmul(h2.T, upstream, out=dW2)
    np.sum(upstream, axis=0, out=db2)
    dz2 = (upstream @ params.weights[2].T) * (1.0 - h2 * h2)
    np.matmul(h1.T, dz2, out=dW1)
    np.sum(dz2, axis=0, out=db1)
    dz1 = (dz2 @ params.weights[1].T) * (1.0 - h1 * h1)
    np.matmul(x.T, dz1, out=dW0)
    np.sum(dz1, axis=0, out=db0)
    return grads


def mlp_backward(params: MlpParams, x: np.ndarray, upstream: np.ndarray) -> MlpParams:
    """Gradients of ``sum(upstream * outputs)`` w.r.t. every parameter.

    ``upstream`` has one row per batch element; gradients sum over the
    batch.
    """
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    return mlp_backward_tape(params, mlp_forward_tape(params, x), upstream)


# -- masked categorical policy ----------------------------------------------

def masked_log_softmax(logits: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_probs, probs, entropy) of a softmax restricted to mask-true slots.

    Masked slots get probability exactly 0 and log-probability -inf; they
    never influence the normalization, so a logit change there cannot
    change the output.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if not masks.any(axis=1).all():
        raise NetError("all-false action mask")
    neg_inf = np.where(masks, logits, -np.inf)
    zmax = neg_inf.max(axis=1, keepdims=True)
    shifted = np.where(masks, logits - zmax, -np.inf)
    exp = np.where(masks, np.exp(np.where(masks, shifted, 0.0)), 0.0)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    log_probs = np.where(masks, shifted - np.log(total), -np.inf)
    plogp = np.where(probs > 0, probs * np.where(masks, log_probs, 0.0), 0.0)
    entropy = -plogp.sum(axis=1)
    return log_probs, probs, entropy


def policy_forward(params: MlpParams, obs: np.ndarray, mask: np.ndarray) -> PolicyOutput:
    logits = mlp_forward(params, np.asarray(obs, dtype=float))
    log_probs, probs, entropy = masked_log_softmax(logits[None, :], np.asarray(mask)[None, :])
    return PolicyOutput(log_probs=log_probs[0], probs=probs[0], entropy=float(entropy[0]))


def policy_forward_batch(
    params: MlpParams, obs: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    logits = mlp_forward(params, obs)
    return masked_log_softmax(logits, masks)


def policy_forward_tape(params: MlpParams, obs: np.ndarray, masks: np.ndarray) -> PolicyTape:
    """``policy_forward_batch`` that also keeps what the backward needs."""
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    tape = mlp_forward_tape(params, obs)
    return PolicyTape(tape, masks, *masked_log_softmax(tape.out, masks))


def policy_upstream(
    tape: PolicyTape, dlogp: np.ndarray, dentropy: np.ndarray | float = 0.0
) -> np.ndarray:
    """Upstream on the logits of ``sum(dlogp * log_probs) + sum(dentropy * entropy)``.

    ``dlogp`` is (N, m) upstream on the masked log-probabilities (entries
    for masked slots must be 0), ``dentropy`` is (N,) upstream on the
    per-sample policy entropy.  Chain rule through the masked softmax:

        d log p_a / d z_j = delta_aj - p_j
        d H / d z_j       = -p_j (log p_j + H)
    """
    masks, log_probs, probs, entropy = tape.masks, tape.log_probs, tape.probs, tape.entropy
    dlogp = np.atleast_2d(np.asarray(dlogp, dtype=float))
    dent = np.broadcast_to(np.asarray(dentropy, dtype=float), (masks.shape[0],))
    row_sum = dlogp.sum(axis=1, keepdims=True)
    up = dlogp - probs * row_sum
    safe_logp = np.where(masks, log_probs, 0.0)
    up = up + dent[:, None] * (-probs * (safe_logp + entropy[:, None]))
    return np.where(masks, up, 0.0)


def policy_backward(
    params: MlpParams,
    obs: np.ndarray,
    masks: np.ndarray,
    dlogp: np.ndarray,
    dentropy: np.ndarray | float = 0.0,
) -> MlpParams:
    """Gradients of ``sum(dlogp * log_probs) + sum(dentropy * entropy)``."""
    tape = policy_forward_tape(params, obs, masks)
    return mlp_backward_tape(params, tape.mlp, policy_upstream(tape, dlogp, dentropy))


# -- scalar value head -------------------------------------------------------

def value_forward(params: MlpParams, obs: np.ndarray) -> float | np.ndarray:
    """Scalar value of one observation, or a vector for a batch."""
    out = mlp_forward(params, obs)
    if out.ndim == 1:
        return float(out[0])
    return out[:, 0]


def value_backward(params: MlpParams, obs: np.ndarray, dvalues: np.ndarray) -> MlpParams:
    dvalues = np.asarray(dvalues, dtype=float).reshape(-1, 1)
    return mlp_backward(params, obs, dvalues)


# -- optimizer ----------------------------------------------------------------

def adam_step(
    params: MlpParams,
    grads: MlpParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update, in place; fails fast on non-finite gradients.

    Updates ``params`` and ``state`` over their flat vectors and returns the
    same two objects.  The operations and their order are those of the
    textbook per-array update, ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + (1-beta2)*g*g`` and
    ``p = p - lr*m_hat / (sqrt(v_hat) + eps)`` with ``m_hat = m/(1-beta1^t)``
    and ``v_hat = v/(1-beta2^t)``, so the results are bit for bit the same.
    """
    g = grads.data
    if not np.isfinite(g).all():
        raise NetError("non-finite gradient")
    t = state.t + 1
    p, m, v = params.data, state.m.data, state.v.data
    step = np.multiply(g, 1 - beta1)
    np.multiply(m, beta1, out=m)
    np.add(m, step, out=m)
    np.multiply(g, 1 - beta2, out=step)
    np.multiply(step, g, out=step)
    np.multiply(v, beta2, out=v)
    np.add(v, step, out=v)
    denom = np.divide(v, 1 - beta2 ** t)
    np.sqrt(denom, out=denom)
    np.add(denom, eps, out=denom)
    np.divide(m, 1 - beta1 ** t, out=step)
    np.multiply(step, lr, out=step)
    np.divide(step, denom, out=step)
    np.subtract(p, step, out=p)
    state.t = t
    return params, state


def neg(grads: MlpParams) -> MlpParams:
    return grads.like(-grads.data)


def add(a: MlpParams, b: MlpParams) -> MlpParams:
    return a.like(a.data + b.data)


# -- checkpoints ---------------------------------------------------------------

def save_params(path: str | Path, params: MlpParams) -> None:
    arrays = {"version": np.array(CHECKPOINT_VERSION)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_params(path: str | Path) -> MlpParams:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise NetError(f"unsupported checkpoint version {version}")
        weights, biases = [], []
        i = 0
        while f"w{i}" in data:
            weights.append(data[f"w{i}"].astype(float))
            biases.append(data[f"b{i}"].astype(float))
            i += 1
    return MlpParams(weights, biases)

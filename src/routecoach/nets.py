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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class NetError(ValueError):
    pass


class MlpParams:
    """Per-layer weights and biases, stored as views into one flat vector.

    ``data`` holds every weight matrix and then every bias vector, in layer
    order and row-major.
    ``weights`` and ``biases`` are tuples of views into ``data``, so writing
    into a layer writes the vector and an optimizer can update every layer
    with one operation on ``data``.  Also used as the gradient container.
    """

    __slots__ = ("data", "weights", "biases")

    def __init__(self, data: np.ndarray, shapes: Sequence[tuple[int, ...]]):
        """Views into ``data`` of the given shapes: every weight matrix's, then every bias vector's."""
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(data[offset:offset + size].reshape(shape))
            offset += size
        half = len(views) // 2
        self.data, self.weights, self.biases = data, tuple(views[:half]), tuple(views[half:])

    def like(self, data: np.ndarray) -> "MlpParams":
        """Parameters with this one's layer shapes, as views into ``data``."""
        return MlpParams(data, [a.shape for a in self.weights + self.biases])

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, each laid out as the parameters' ``data``
    v: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class PolicyOutput:
    log_probs: np.ndarray  # (m,), -inf on masked slots
    probs: np.ndarray      # (m,), exactly 0 on masked slots
    entropy: float


class MlpTape(NamedTuple):
    """Inputs and activations of one batched forward pass, for the backward (which overwrites ``h1`` and ``h2``)."""

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


def zeros_mlp(in_dim: int, out_dim: int) -> MlpParams:
    """Zero parameters of the one architecture, ``in_dim`` -> ``HIDDEN`` -> ``out_dim``."""
    dims = (in_dim, *HIDDEN, out_dim)
    shapes = [*zip(dims, dims[1:]), *((cols,) for cols in dims[1:])]  # the weights', then the biases'
    return MlpParams(np.zeros(sum(math.prod(shape) for shape in shapes)), shapes)


def init_mlp(rng: np.random.Generator, in_dim: int, out_dim: int) -> MlpParams:
    """Scaled-uniform hidden layers, zero final layer, zero biases."""
    params = zeros_mlp(in_dim, out_dim)
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
    return AdamState(m=np.zeros_like(params.data), v=np.zeros_like(params.data))


# -- forward / backward ----------------------------------------------------
#
# Each backward is a forward that keeps its activations (``*_forward_tape``)
# followed by a backward over them (``mlp_grads``, with ``policy_upstream`` in
# front for the policy), so a caller that already ran the forward on the
# current parameters can skip running it again.
#
# A tape can hold segments, network ``layers[s]`` on rows ``rows[s]``.  Each matrix product
# runs per segment, as a pass over the segment alone runs it, so each segment gets that
# pass's bits (BLAS picks kernels by row count); elementwise work gives the same bits on
# any split of the rows.  The backward runs one segment at a time, in that segment's rows
# of the tape, so it needs no all-rows arrays beside the tape.

def mlp_forward_tape(params: MlpParams | Sequence[MlpParams], x: np.ndarray,
                     rows: Sequence[slice] | None = None) -> MlpTape:
    """Forward pass over a batch (N, dim), keeping the activations; with ``rows``, one network per segment.

    Stacked rows (N, 1, dim) run one matrix-vector product per row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    layers, rows = ([params], [slice(None)]) if rows is None else (params, rows)
    acts = [x]
    for layer in range(len(HIDDEN) + 1):
        z = np.empty((*x.shape[:-1], layers[0].weights[layer].shape[1]))
        for net, r in zip(layers, rows):
            np.matmul(acts[-1][r], net.weights[layer], out=z[r])
            z[r] += net.biases[layer]
        if layer < len(HIDDEN):
            np.tanh(z, out=z)
        acts.append(z)
    return MlpTape(*acts)


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Raw network outputs for a single input (dim,) or a batch (N, dim)."""
    x = np.asarray(x, dtype=float)
    out = mlp_forward_tape(params, x).out
    return out[0] if x.ndim == 1 else out


def mlp_grads(net: MlpParams, tape: MlpTape, upstream: np.ndarray, rows: slice, grads: MlpParams) -> MlpParams:
    """Writes the gradients of ``sum(upstream * outputs)`` over the segment ``rows`` into ``grads``; returns it.

    The segment's rows of ``tape.h1`` and ``tape.h2`` are overwritten with the upstream on
    the pre-activations they fed (nothing reads them again); ``tape.x``, which the value
    and policy tapes share, is only read.
    """
    delta = upstream[rows]
    for layer, inputs in ((2, tape.h2), (1, tape.h1), (0, tape.x)):
        h = inputs[rows]
        np.matmul(h.T, delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])  # np.sum's ufunc, without its Python wrapper
        if layer:
            dtanh = np.multiply(h, h)
            np.subtract(1.0, dtanh, out=dtanh)
            delta = np.matmul(delta, net.weights[layer].T, out=h)
            delta *= dtanh
    return grads


def mlp_backward(params: MlpParams, x: np.ndarray, upstream: np.ndarray) -> MlpParams:
    """Gradients of ``sum(upstream * outputs)``, one ``upstream`` row per batch row, summed over the batch."""
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    tape = mlp_forward_tape(params, x)
    if len(tape.x) == 0:
        raise NetError("empty batch")
    if upstream.shape != (len(tape.x), params.out_dim):
        raise NetError(f"upstream shape {upstream.shape} does not match batch/out dims")
    return mlp_grads(params, tape, upstream, slice(None), params.like(np.empty_like(params.data)))


# -- masked categorical policy ----------------------------------------------

def masked_log_softmax(logits: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_probs, probs, entropy) of a softmax over the last axis, restricted to mask-true slots.

    ``masks`` broadcasts against ``logits``.  Masked slots get probability
    exactly 0 and log-probability -inf; they never influence the
    normalization, so a logit change there cannot change the output.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if not masks.any(axis=-1).all():
        raise NetError("all-false action mask")
    # masked once: from here on a masked slot's -inf stays -inf and exps to exactly 0
    log_probs = np.where(masks, logits, -np.inf)
    log_probs -= log_probs.max(axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    log_probs -= np.log(total)
    plogp = np.where(probs > 0, probs * np.where(masks, log_probs, 0.0), 0.0)
    entropy = -plogp.sum(axis=-1)
    return log_probs, probs, entropy


def policy_forward(params: MlpParams, obs: np.ndarray, mask: np.ndarray) -> PolicyOutput:
    logits = mlp_forward(params, np.asarray(obs, dtype=float))
    log_probs, probs, entropy = masked_log_softmax(logits[None, :], np.asarray(mask)[None, :])
    return PolicyOutput(log_probs=log_probs[0], probs=probs[0], entropy=float(entropy[0]))


def policy_table_forward(
    policies: Sequence[MlpParams], obs: Sequence[np.ndarray], masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs), each (A, n, m): network ``a`` of ``policies`` on every row of ``obs[a]``.

    ``obs`` holds A tables (n, in) of n observations, one per network, and
    ``masks`` (n, m) the action mask of each row, shared by the networks.
    Each row is run as its own 1-row batch, ``(n, 1, in)``, so it gets the
    operations ``policy_forward`` applies to that row alone and the values are
    bit for bit the same.  Rows whose mask is all false (dead ends) get -inf
    and 0 instead of raising.
    """
    logits = np.empty((len(policies), *masks.shape))
    for net, x, out in zip(policies, obs, logits):
        out[...] = mlp_forward_tape(net, x[:, None, :]).out[:, 0, :]
    live = masks.any(axis=1)
    log_probs, probs = np.full(logits.shape, -np.inf), np.zeros(logits.shape)
    if live.any():
        log_probs[:, live], probs[:, live], _ = masked_log_softmax(logits[:, live], masks[live])
    return log_probs, probs


def policy_forward_batch(
    params: MlpParams, obs: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    logits = mlp_forward(params, obs)
    return masked_log_softmax(logits, masks)


def policy_forward_tape(params: MlpParams | Sequence[MlpParams], obs: np.ndarray, masks: np.ndarray,
                        rows: Sequence[slice] | None = None) -> PolicyTape:
    """``policy_forward_batch`` that also keeps what the backward needs; segments as ``mlp_forward_tape``."""
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    tape = mlp_forward_tape(params, obs, rows)
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
    return mlp_backward(params, obs, policy_upstream(tape, dlogp, dentropy))


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
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update, in place; fails fast on non-finite gradients.

    Updates ``params`` and ``state`` over their flat vectors and returns the
    same two objects.  The operations and their order are those of the
    textbook per-array update, ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + (1-beta2)*g*g`` and
    ``p = p - lr*m_hat / (sqrt(v_hat) + eps)`` with ``m_hat = m/(1-beta1^t)``
    and ``v_hat = v/(1-beta2^t)`` (the ``ADAM_*`` constants), so the results are bit for bit the same.
    """
    g = grads.data
    if not np.isfinite(g).all():
        raise NetError("non-finite gradient")
    t = state.t + 1
    p, m, v = params.data, state.m, state.v
    step = np.multiply(g, 1 - ADAM_BETA1)
    np.multiply(m, ADAM_BETA1, out=m)
    np.add(m, step, out=m)
    np.multiply(g, 1 - ADAM_BETA2, out=step)
    np.multiply(step, g, out=step)
    np.multiply(v, ADAM_BETA2, out=v)
    np.add(v, step, out=v)
    denom = np.divide(v, 1 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    np.add(denom, ADAM_EPS, out=denom)
    np.divide(m, 1 - ADAM_BETA1 ** t, out=step)
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


def load_params(path: str | Path, in_dim: int, out_dim: int) -> MlpParams:
    """The network ``save_params`` wrote to ``path``, read into the layout of ``zeros_mlp(in_dim, out_dim)``.

    Raises ``NetError`` when the file's version or the shape of a ``w{i}``/``b{i}`` array differs from it.
    """
    params = zeros_mlp(in_dim, out_dim)
    with np.load(path) as data:
        version = data["version"]
        if version.shape != () or version != CHECKPOINT_VERSION:
            raise NetError(f"unsupported checkpoint version {version.tolist()}")
        for i, layer in enumerate(zip(params.weights, params.biases)):
            for name, view in zip((f"w{i}", f"b{i}"), layer):
                array = data[name]
                if array.shape != view.shape:
                    raise NetError(f"{name} has shape {array.shape}, where the network takes {view.shape}")
                view[...] = array
    return params

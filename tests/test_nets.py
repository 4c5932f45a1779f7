import numpy as np
import pytest

from routecoach import nets


def random_params(rng, in_dim=6, out_dim=3):
    """Fully random parameters (no zero layer), for gradient checks."""
    params = nets.init_mlp(rng, in_dim, out_dim)
    params.weights[-1][...] = rng.normal(scale=0.3, size=params.weights[-1].shape)
    params.biases[-1][...] = rng.normal(scale=0.1, size=params.biases[-1].shape)
    return params


def numeric_grad(fn, params, coords, h=1e-5):
    """Central finite differences of scalar fn at the given coordinates."""
    grads = {}
    for kind, layer, index in coords:
        arr = getattr(params, kind)[layer]
        orig = arr[index]
        arr[index] = orig + h
        up = fn(params)
        arr[index] = orig - h
        down = fn(params)
        arr[index] = orig
        grads[(kind, layer, index)] = (up - down) / (2 * h)
    return grads


def sample_coords(rng, params, per_layer=4):
    coords = []
    for kind in ("weights", "biases"):
        for layer, arr in enumerate(getattr(params, kind)):
            for _ in range(per_layer):
                index = tuple(rng.integers(s) for s in arr.shape)
                coords.append((kind, layer, index))
    return coords


def relative_error(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def test_uniform_policy_at_zero_final_layer(rng):
    params = nets.init_mlp(rng, 10, 4)
    out = nets.policy_forward(params, rng.normal(size=10), np.ones(4, dtype=bool))
    np.testing.assert_allclose(out.probs, 0.25)
    assert out.entropy == pytest.approx(np.log(4), abs=1e-9)


def test_single_valid_action(rng):
    params = nets.init_mlp(rng, 10, 2)
    out = nets.policy_forward(params, rng.normal(size=10), np.array([True, False]))
    np.testing.assert_array_equal(out.probs, [1.0, 0.0])
    assert out.entropy == pytest.approx(0.0)
    assert out.log_probs[1] == -np.inf


def test_probs_normalized_random(rng):
    params = random_params(rng, 8, 5)
    for _ in range(20):
        mask = np.zeros(5, dtype=bool)
        mask[rng.choice(5, size=rng.integers(1, 6), replace=False)] = True
        out = nets.policy_forward(params, rng.normal(size=8), mask)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out.probs[~mask] == 0.0).all()


def test_masked_logit_never_matters(rng):
    params = random_params(rng, 6, 4)
    obs = rng.normal(size=6)
    mask = np.array([True, False, True, False])
    base = nets.policy_forward(params, obs, mask)
    # push a huge constant into a masked slot's final-layer column
    params.biases[-1][1] += 1e6
    bumped = nets.policy_forward(params, obs, mask)
    np.testing.assert_array_equal(base.probs, bumped.probs)


def test_all_false_mask_rejected(rng):
    params = nets.init_mlp(rng, 4, 2)
    with pytest.raises(nets.NetError, match="mask"):
        nets.policy_forward(params, np.zeros(4), np.array([False, False]))


def test_value_zero_at_init_and_deterministic(rng):
    params = nets.init_mlp(rng, 7, 1)
    obs = rng.normal(size=7)
    assert nets.value_forward(params, obs) == 0.0
    params2 = random_params(rng, 7, 1)
    assert nets.value_forward(params2, obs) == nets.value_forward(params2, obs)
    assert np.isfinite(nets.value_forward(params2, rng.uniform(-10, 10, size=7)))


def test_backward_zero_upstream(rng):
    params = random_params(rng)
    grads = nets.mlp_backward(params, rng.normal(size=(3, 6)), np.zeros((3, 3)))
    for g in grads.weights + grads.biases:
        assert (g == 0).all()


def test_backward_batch_additivity(rng):
    params = random_params(rng)
    x = rng.normal(size=(2, 6))
    up = rng.normal(size=(2, 3))
    both = nets.mlp_backward(params, x, up)
    one = nets.mlp_backward(params, x[:1], up[:1])
    two = nets.mlp_backward(params, x[1:], up[1:])
    for g, g1, g2 in zip(both.weights, one.weights, two.weights):
        np.testing.assert_allclose(g, g1 + g2, atol=1e-12)


def test_mlp_backward_matches_finite_differences(rng):
    for _ in range(5):
        params = random_params(rng)
        x = rng.normal(size=(4, 6))
        up = rng.normal(size=(4, 3))
        analytic = nets.mlp_backward(params, x, up)
        fn = lambda p: float((nets.mlp_forward(p, x) * up).sum())
        for kind, layer, index in sample_coords(rng, params, per_layer=3):
            num = numeric_grad(fn, params, [(kind, layer, index)])[(kind, layer, index)]
            ana = getattr(analytic, kind)[layer][index]
            assert relative_error(ana, num) < 1e-4


def test_policy_backward_matches_finite_differences(rng):
    for _ in range(5):
        params = random_params(rng, 6, 4)
        x = rng.normal(size=(3, 6))
        masks = np.ones((3, 4), dtype=bool)
        masks[0, 2] = False
        dlogp = rng.normal(size=(3, 4)) * masks
        dent = rng.normal(size=3)
        analytic = nets.policy_backward(params, x, masks, dlogp, dent)

        def fn(p):
            logp, _, ent = nets.policy_forward_batch(p, x, masks)
            return float((np.where(masks, logp, 0.0) * dlogp).sum() + (dent * ent).sum())

        for kind, layer, index in sample_coords(rng, params, per_layer=3):
            num = numeric_grad(fn, params, [(kind, layer, index)])[(kind, layer, index)]
            ana = getattr(analytic, kind)[layer][index]
            assert relative_error(ana, num) < 1e-4


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-layer Adam that builds new arrays: the reference for ``adam_step``."""
    t = state.t + 1
    new = {}
    for kind in ("weights", "biases"):
        layers = zip(getattr(params, kind), getattr(grads, kind),
                     getattr(state.m, kind), getattr(state.v, kind))
        new[kind] = []
        for p, g, m, v in layers:
            m2 = beta1 * m + (1 - beta1) * g
            v2 = beta2 * v + (1 - beta2) * g * g
            m_hat = m2 / (1 - beta1 ** t)
            v_hat = v2 / (1 - beta2 ** t)
            new[kind].append((p - lr * m_hat / (np.sqrt(v_hat) + eps), m2, v2))
    unzip = lambda i: nets.MlpParams([e[i] for e in new["weights"]], [e[i] for e in new["biases"]])
    return unzip(0), nets.AdamState(m=unzip(1), v=unzip(2), t=t)


def test_adam_matches_per_layer_reference(rng):
    params = random_params(rng, 9, 4)
    state = nets.init_adam(params)
    ref_params, ref_state = params.copy(), nets.init_adam(params)
    for _ in range(50):
        grads = params.like(rng.normal(size=params.data.shape) * rng.choice([1e-3, 1.0, 50.0]))
        updated, new_state = nets.adam_step(params, grads, state, lr=3e-3)
        assert updated is params and new_state is state
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr=3e-3)
        np.testing.assert_array_equal(params.data, ref_params.data)
        np.testing.assert_array_equal(state.m.data, ref_state.m.data)
        np.testing.assert_array_equal(state.v.data, ref_state.v.data)
        assert state.t == ref_state.t


def test_adam_zero_grads_keep_params(rng):
    params = random_params(rng)
    before = params.flat()
    state = nets.init_adam(params)
    zeros = nets.MlpParams([np.zeros_like(w) for w in params.weights],
                           [np.zeros_like(b) for b in params.biases])
    updated, state = nets.adam_step(params, zeros, state, lr=0.1)
    np.testing.assert_array_equal(updated.flat(), before)


def test_layers_are_views_and_flat_is_a_copy(rng):
    params = random_params(rng)
    for layer in params.weights + params.biases:
        assert np.shares_memory(layer, params.data)
    snapshot = params.flat()
    assert not np.shares_memory(snapshot, params.data)
    params.weights[0][0, 0] += 1.0
    assert params.data[0] == snapshot[0] + 1.0
    assert not np.shares_memory(params.copy().data, params.data)


def test_adam_first_step_magnitude():
    # single-coordinate check of the bias-corrected update at t=1
    params = nets.MlpParams([np.array([[1.0]])] * 3, [np.array([0.0])] * 3)
    grads = nets.MlpParams([np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1))],
                           [np.array([0.0])] * 3)
    state = nets.init_adam(params)
    updated, state = nets.adam_step(params, grads, state, lr=3e-4)
    assert updated.weights[0][0, 0] == pytest.approx(1.0 - 3e-4, rel=1e-6)
    assert state.t == 1


def test_adam_deterministic(rng):
    def run():
        gen = np.random.default_rng(9)
        params = random_params(gen)
        state = nets.init_adam(params)
        for _ in range(5):
            grads = nets.MlpParams([np.full_like(w, 0.1) for w in params.weights],
                                   [np.full_like(b, 0.1) for b in params.biases])
            params, state = nets.adam_step(params, grads, state, lr=1e-3)
        return params

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_adam_rejects_nonfinite(rng):
    params = random_params(rng)
    state = nets.init_adam(params)
    grads = nets.MlpParams([np.full_like(w, np.nan) for w in params.weights],
                           [np.zeros_like(b) for b in params.biases])
    with pytest.raises(nets.NetError, match="non-finite"):
        nets.adam_step(params, grads, state, lr=1e-3)


def test_checkpoint_roundtrip(tmp_path, rng):
    params = random_params(rng, 9, 3)
    nets.save_params(tmp_path / "net.npz", params)
    loaded = nets.load_params(tmp_path / "net.npz")
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_version_checked(tmp_path, rng):
    params = random_params(rng)
    nets.save_params(tmp_path / "net.npz", params)
    data = dict(np.load(tmp_path / "net.npz"))
    data["version"] = np.array(99)
    np.savez(tmp_path / "bad.npz", **data)
    with pytest.raises(nets.NetError, match="version"):
        nets.load_params(tmp_path / "bad.npz")

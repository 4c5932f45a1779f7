import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from routecoach import AgentSpec, generate_agent_specs, grid_graph, nets, policy_table
from routecoach.env import RouteEnv
from routecoach.training import TrainConfig, Trainer, update_agent
from reference import masked_log_softmax_reference, max_gradient_error
from test_pinned_outputs import _hand_trajectory


def random_params(rng, in_dim=6, out_dim=3):
    """Fully random parameters (no zero layer), for gradient checks."""
    params = nets.init_mlp(rng, in_dim, out_dim)
    params.weights[-1][...] = rng.normal(scale=0.3, size=params.weights[-1].shape)
    params.biases[-1][...] = rng.normal(scale=0.1, size=params.biases[-1].shape)
    return params


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


@st.composite
def softmax_inputs(draw):
    """Logits up to +-1e3 (so some probabilities underflow to 0), plain or the table's ``(A, n, m)``,
    and ``(n, m)`` masks with a valid slot in every row."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    agents = draw(st.sampled_from([(), (1,), (3,)]))
    logits = draw(arrays(float, (*agents, n, m), elements=st.floats(-1e3, 1e3)))
    masks = draw(arrays(bool, (n, m)))
    masks[np.arange(n), draw(arrays(np.int64, n, elements=st.integers(0, m - 1)))] = True
    return logits, masks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(softmax_inputs())
@example((np.array([[[1e3, -1e3, 5.0]], [[0.0, 2.0, -1e3]]]), np.array([[True, True, False]])))
def test_masked_log_softmax_matches_reference_bytes(inputs):
    """Masking once gives the bytes of masking at every step: log-probs, probs and entropy."""
    got = nets.masked_log_softmax(*inputs)
    want = masked_log_softmax_reference(*inputs)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
        assert max_gradient_error(rng, params, fn, analytic, per_layer=3) < 1e-4


def test_segment_backward_sums_to_batch_backward_and_only_reads_inputs(rng):
    """``mlp_grads`` one segment at a time on one tape: the gradients sum to ``mlp_backward``'s."""
    params = random_params(rng)
    x = rng.normal(size=(11, 6))
    up = rng.normal(size=(11, 3))
    rows = [slice(0, 1), slice(1, 5), slice(5, 11)]
    tape = nets.mlp_forward_tape([params] * len(rows), x, rows)
    inputs = tape.x.copy()
    total = np.zeros_like(params.data)
    for r in rows:
        total += nets.mlp_grads(params, tape, up, r, params.like(np.empty_like(params.data))).data
    np.testing.assert_array_equal(tape.x, inputs)  # the value and policy tapes share ``x``
    np.testing.assert_allclose(total, nets.mlp_backward(params, x, up).data, atol=1e-12)


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

        assert max_gradient_error(rng, params, fn, analytic, per_layer=3) < 1e-4


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-layer Adam that builds new arrays: the reference for ``adam_step``."""
    t = state.t + 1
    new = {}
    m_layers, v_layers = params.like(state.m), params.like(state.v)  # the moments' per-layer views
    for kind in ("weights", "biases"):
        layers = zip(getattr(params, kind), getattr(grads, kind), getattr(m_layers, kind), getattr(v_layers, kind))
        new[kind] = []
        for p, g, m, v in layers:
            m2 = beta1 * m + (1 - beta1) * g
            v2 = beta2 * v + (1 - beta2) * g * g
            m_hat = m2 / (1 - beta1 ** t)
            v_hat = v2 / (1 - beta2 ** t)
            new[kind].append((p - lr * m_hat / (np.sqrt(v_hat) + eps), m2, v2))
    unzip = lambda i: params.like(np.concatenate([e[i].ravel() for e in new["weights"] + new["biases"]]))
    return unzip(0), nets.AdamState(m=unzip(1).data, v=unzip(2).data, t=t)


def test_adam_matches_per_layer_reference(rng):
    params = random_params(rng, 9, 4)
    state = nets.init_adam(params)
    ref_params, ref_state = params.like(params.data.copy()), nets.init_adam(params)
    for _ in range(50):
        grads = params.like(rng.normal(size=params.data.shape) * rng.choice([1e-3, 1.0, 50.0]))
        updated, new_state = nets.adam_step(params, grads, state, lr=3e-3)
        assert updated is params and new_state is state
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr=3e-3)
        np.testing.assert_array_equal(params.data, ref_params.data)
        np.testing.assert_array_equal(state.m, ref_state.m)
        np.testing.assert_array_equal(state.v, ref_state.v)
        assert state.t == ref_state.t


def test_adam_zero_grads_keep_params(rng):
    params = random_params(rng)
    before = params.data.copy()
    state = nets.init_adam(params)
    zeros = params.like(np.zeros_like(params.data))
    updated, state = nets.adam_step(params, zeros, state, lr=0.1)
    np.testing.assert_array_equal(updated.data, before)


def test_layers_are_views_into_data(rng):
    params = random_params(rng)
    for layer in params.weights + params.biases:
        assert np.shares_memory(layer, params.data)
    first = params.data[0]
    params.weights[0][0, 0] += 1.0
    assert params.data[0] == first + 1.0


def test_adam_first_step_magnitude():
    # single-coordinate check of the bias-corrected update at t=1
    params = nets.MlpParams(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), [(1, 1)] * 3 + [(1,)] * 3)
    grads = params.like(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
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
            grads = params.like(np.full_like(params.data, 0.1))
            params, state = nets.adam_step(params, grads, state, lr=1e-3)
        return params

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_adam_rejects_nonfinite(rng):
    params = random_params(rng)
    state = nets.init_adam(params)
    grads = params.like(np.zeros_like(params.data))
    for w in grads.weights:
        w.fill(np.nan)
    with pytest.raises(nets.NetError, match="non-finite"):
        nets.adam_step(params, grads, state, lr=1e-3)


def test_checkpoint_roundtrip(tmp_path, rng):
    params = random_params(rng, 9, 3)
    nets.save_params(tmp_path / "net.npz", params)
    loaded = nets.load_params(tmp_path / "net.npz", 9, 3)
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_version_checked(tmp_path, rng):
    params = random_params(rng)
    nets.save_params(tmp_path / "net.npz", params)
    data = dict(np.load(tmp_path / "net.npz"))
    data["version"] = np.array(99)
    np.savez(tmp_path / "bad.npz", **data)
    with pytest.raises(nets.NetError, match="version"):
        nets.load_params(tmp_path / "bad.npz", 6, 3)


def test_stacked_policy_forward_matches_per_agent_bit_for_bit(request):
    """The table forward equals one ``policy_forward`` per (agent, junction) row."""
    rng = np.random.default_rng(21)
    for name in ("grid5", "line"):
        graph = request.getfixturevalue(name)
        # one agent per junction that some other junction reaches, as its destination
        specs = []
        for dest in graph.nodes:
            dist = graph.distances_to(dest)
            starts = [j for j in graph.nodes if j != dest and dist[j] != float("inf")]
            if starts:
                specs.append(AgentSpec(len(specs), starts[0], dest))
        env = RouteEnv(graph, specs)
        policies = [random_params(rng, env.obs_dim, env.n_actions) for _ in specs]
        obs = np.stack([env.agent_tables(i)[0] for i in range(len(specs))])
        masks = env.mask_table
        log_probs, probs = nets.policy_table_forward(policies, obs, masks)
        assert log_probs.shape == probs.shape == (len(specs), graph.node_count, env.n_actions)
        for i, policy in enumerate(policies):
            for j in graph.nodes:
                if not masks[j].any():
                    assert np.all(log_probs[i, j] == -np.inf) and np.all(probs[i, j] == 0.0)
                    continue
                out = nets.policy_forward(policy, obs[i, j], masks[j])
                np.testing.assert_array_equal(log_probs[i, j].view(np.uint64), out.log_probs.view(np.uint64))
                np.testing.assert_array_equal(probs[i, j].view(np.uint64), out.probs.view(np.uint64))
        if name == "line":  # a dead end, a single-action row, and slots scored -10
            assert not masks.any(axis=1).all() and (obs[:, :, 2::2] == -10.0).any()
            assert probs[0, 0].tolist() == [1.0]


def test_policy_table_allocates_no_stacked_copy():
    """The table forward runs each agent on its own parameters: no copy of every policy, no (A, n, 128) activations."""
    graph = grid_graph(10)
    env = RouteEnv(graph, generate_agent_specs(graph, 12, seed=0))
    rng = np.random.default_rng(8)
    policies = [random_params(rng, env.obs_dim, env.n_actions) for _ in range(env.n_agents)]
    env.agent_tables(0)  # builds the tables on first use; only the policy table is measured
    tracemalloc.start()
    try:
        policy_table(env, policies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_update_round_allocates_no_all_rows_deltas():
    """The update's backward writes over the tape's own rows: no rows-by-128 delta arrays beside the tape."""
    graph = grid_graph(10)
    config = TrainConfig(n_agents=12, steps_per_episode=50, seed=0)
    trainer = Trainer(config, graph, generate_agent_specs(graph, 12, seed=0))
    rng = np.random.default_rng(5)
    tau_a = [_hand_trajectory(trainer.env, i, 50, rng, terminated=False) for i in range(12)]
    tracemalloc.start()
    try:
        update_agent(trainer.learners, tau_a, [None] * 12, 1, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 600 rows, 0.59 MiB per rows-by-128 array: two or more all-rows delta arrays pass the bound
    assert peak < 2.75 * 2**20

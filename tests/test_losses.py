import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecoach import losses as L
from reference import returns_direct_sum


class TestBootstrappedReturns:
    def test_three_step_example(self):
        got = L.bootstrapped_returns(np.array([1.0, 1.0, 1.0]), 0.5, 2.0)
        np.testing.assert_allclose(got, [2.0, 2.0, 2.0])

    def test_single_step(self):
        got = L.bootstrapped_returns(np.array([5.0]), 0.9, 10.0)
        assert got[0] == pytest.approx(14.0)

    def test_gamma_zero_collapses_to_rewards(self):
        r = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(L.bootstrapped_returns(r, 0.0, 99.0), r)

    def test_matches_direct_sum(self, rng):
        for _ in range(50):
            T = rng.integers(1, 21)
            rewards = rng.normal(size=T)
            gamma = rng.choice([0.0, 0.5, 0.9, 0.99])
            tail = rng.normal()
            got = L.bootstrapped_returns(rewards, gamma, tail)
            np.testing.assert_allclose(got, returns_direct_sum(rewards, gamma, tail), atol=1e-9)

    def test_rejects_empty_and_bad_gamma(self):
        with pytest.raises(ValueError):
            L.bootstrapped_returns(np.array([]), 0.9, 0.0)
        with pytest.raises(ValueError):
            L.bootstrapped_returns(np.array([1.0]), 1.5, 0.0)


class TestAdvantages:
    def test_zero_when_equal(self):
        np.testing.assert_array_equal(L.advantages(np.array([2.0, 2.0]), np.array([2.0, 2.0])), [0.0, 0.0])

    def test_plain_difference(self):
        np.testing.assert_array_equal(L.advantages(np.array([3.0, 1.0]), np.array([1.0, 1.0])), [2.0, 0.0])

    def test_standardize(self):
        np.testing.assert_allclose(L.standardize(np.array([2.0, 0.0])), [1.0, -1.0], atol=1e-6)

    def test_standardized_mean_zero(self, rng):
        x = rng.normal(size=37) * 5 + 3
        assert abs(L.standardize(x).mean()) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            L.advantages(np.zeros(3), np.zeros(4))


class TestValueLoss:
    def test_zero_at_fit(self):
        assert L.value_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_case(self):
        assert L.value_loss(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(2.0)

    def test_single_element(self):
        assert L.value_loss(np.array([4.0]), np.array([1.0])) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            L.value_loss(np.array([]), np.array([]))


class TestClippedSurrogate:
    def test_identity_at_equal_logp(self, rng):
        logp = rng.normal(size=20)
        adv = rng.normal(size=20)
        got = L.clipped_surrogate(logp, logp.copy(), adv, 0.2)
        assert got == pytest.approx(adv.mean(), abs=1e-12)

    def test_positive_advantage_clips_up(self):
        # ratio 1.5, eps 0.2, A 1 -> min(1.5, 1.2)
        got = L.clipped_surrogate(np.array([np.log(1.5)]), np.array([0.0]), np.array([1.0]), 0.2)
        assert got == pytest.approx(1.2, abs=1e-12)

    def test_negative_advantage_clips_down(self):
        # ratio 0.5, eps 0.2, A -1 -> min(-0.5, -0.8)
        got = L.clipped_surrogate(np.array([np.log(0.5)]), np.array([0.0]), np.array([-1.0]), 0.2)
        assert got == pytest.approx(-0.8, abs=1e-12)

    def test_bounded_by_clip(self, rng):
        for _ in range(30):
            n = rng.integers(1, 30)
            logp_new = rng.normal(size=n)
            logp_old = rng.normal(size=n)
            adv = rng.normal(size=n)
            eps = float(rng.uniform(0.05, 0.5))
            got = L.clipped_surrogate(logp_new, logp_old, adv, eps)
            ratio = np.exp(logp_new - logp_old)
            bound = np.max(np.abs(adv)) * max(1.0 + eps, float(ratio.max()))
            assert abs(got) <= bound + 1e-12

    def test_grad_zero_when_clipped_out(self):
        g = L.clipped_surrogate_grad(np.array([np.log(1.5)]), np.array([0.0]), np.array([1.0]), 0.2)
        assert g[0] == 0.0
        g = L.clipped_surrogate_grad(np.array([np.log(0.5)]), np.array([0.0]), np.array([-1.0]), 0.2)
        assert g[0] == 0.0
        g = L.clipped_surrogate_grad(np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.2)
        assert g[0] == pytest.approx(1.0)

    def test_grad_matches_finite_difference(self, rng):
        for _ in range(20):
            n = rng.integers(1, 15)
            logp_new = rng.normal(size=n) * 0.1
            logp_old = rng.normal(size=n) * 0.1
            adv = rng.normal(size=n)
            eps = 0.2
            ana = L.clipped_surrogate_grad(logp_new, logp_old, adv, eps)
            h = 1e-7
            for i in range(n):
                ratio = np.exp(logp_new[i] - logp_old[i])
                # skip the kink where min() switches branch
                if abs(ratio - (1 + eps)) < 1e-3 or abs(ratio - (1 - eps)) < 1e-3:
                    continue
                bumped = logp_new.copy(); bumped[i] += h
                dropped = logp_new.copy(); dropped[i] -= h
                num = (L.clipped_surrogate(bumped, logp_old, adv, eps)
                       - L.clipped_surrogate(dropped, logp_old, adv, eps)) / (2 * h)
                assert ana[i] == pytest.approx(num, abs=1e-5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            L.clipped_surrogate(np.zeros(1), np.zeros(1), np.zeros(1), 1.5)


class TestAlphaWeight:
    def test_zero_distance_gives_one(self):
        for k, K in ((1, 10), (5, 10), (10, 10)):
            assert L.alpha_weight(k, K, 0.0) == 1.0

    def test_half_at_ln2(self):
        assert L.alpha_weight(10, 10, np.log(2)) == pytest.approx(0.5)

    def test_reported_initial_distance(self):
        # distance 189.91 at 1% progress weighs the agent loss at ~0.1497
        assert L.alpha_weight(1, 100, 189.91) == pytest.approx(0.1497, abs=1e-4)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 500), st.integers(1, 500), st.floats(0.0, 600.0))
    def test_always_in_unit_interval(self, k, K, d):
        if k > K:
            k, K = K, k
        assert 0.0 < L.alpha_weight(k, K, d) <= 1.0

    def test_strictly_decreasing_in_distance_and_epoch(self):
        for d1, d2 in ((0.0, 1.0), (1.0, 2.5), (10.0, 50.0)):
            assert L.alpha_weight(3, 10, d2) < L.alpha_weight(3, 10, d1)
        for k1, k2 in ((1, 2), (2, 7), (7, 10)):
            assert L.alpha_weight(k2, 10, 5.0) < L.alpha_weight(k1, 10, 5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            L.alpha_weight(0, 10, 1.0)
        with pytest.raises(ValueError):
            L.alpha_weight(11, 10, 1.0)
        with pytest.raises(ValueError):
            L.alpha_weight(1, 10, -0.1)


class TestMixedAndTotal:
    def test_alpha_one_is_agent_only(self):
        assert L.mixed_policy_objective(3.5, 99.0, 1.0) == pytest.approx(3.5)

    def test_midpoint(self):
        assert L.mixed_policy_objective(2.0, 0.0, 0.5) == pytest.approx(1.0)

    def test_expert_heavy(self):
        assert L.mixed_policy_objective(1.0, 2.0, 0.2) == pytest.approx(1.8)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            L.mixed_policy_objective(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            L.mixed_policy_objective(1.0, 1.0, 1.1)

    def test_entropy_bonus_added(self):
        assert L.total_policy_objective(1.0, np.log(4), 0.5) == pytest.approx(1.0 + 0.5 * np.log(4))

    def test_zero_entropy_keeps_mixed(self):
        assert L.total_policy_objective(2.5, 0.0, 0.01) == pytest.approx(2.5)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            L.total_policy_objective(1.0, 1.0, 0.0)

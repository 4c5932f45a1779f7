import copy
import dataclasses
import math

import numpy as np
import pytest

from routecoach import AgentSpec, grid_graph, hilly_graph, line_graph, training
from routecoach import demos as dg
from routecoach import losses as L
from routecoach import nets
from routecoach.env import RouteEnv
from routecoach.llm import LlmError, MockChatCompleter
from routecoach.prompts import build_prompt
from routecoach.trajectory import Trajectory
from routecoach.training import (
    MAX_AGENTS,
    MAX_EVAL_EPISODES,
    METRICS_COLUMNS,
    TrainConfig,
    Trainer,
    TrainingError,
    agent_rng,
    choice_cdf,
    config_hash,
    draw,
    evaluate,
    generate_agent_specs,
    load_checkpoint,
    policy_table,
    rollout,
    save_checkpoint,
    update_agent,
)
from reference import episode_record, learner_bytes, policy_episode, primitive_build


@pytest.fixture()
def grid3_setup():
    graph = grid_graph(3)
    specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6))
    return graph, specs


def small_config(**overrides):
    defaults = dict(n_agents=2, epochs=6, steps_per_episode=40, demo_interval=2,
                    expert_provider="oracle", mode="dynamic", seed=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestConfig:
    def test_defaults_follow_reported_setup(self):
        cfg = TrainConfig()
        assert cfg.n_agents == 10
        assert cfg.epochs == 500
        assert cfg.steps_per_episode == 200
        assert cfg.learning_rate == 3e-4
        assert cfg.demo_interval == 5

    def test_ippo_forces_no_provider(self):
        cfg = TrainConfig(mode="ippo")
        assert cfg.expert_provider == "none"

    def test_provider_none_needs_ippo(self):
        with pytest.raises(ValueError, match="ippo"):
            TrainConfig(mode="dynamic", expert_provider="none")

    def test_logit_ppo_forces_logit_provider(self):
        cfg = TrainConfig(mode="logit-ppo", expert_provider="oracle")
        assert cfg.expert_provider == "logit"

    def test_fixed_alpha_parsing(self):
        cfg = TrainConfig(mode="fixed-alpha:0.5")
        assert cfg.mode_kind == "fixed"
        assert cfg.fixed_alpha == 0.5
        with pytest.raises(ValueError):
            TrainConfig(mode="fixed-alpha:1.5")
        with pytest.raises(ValueError):
            TrainConfig(mode="nonsense")

    def test_roundtrip_and_hash(self):
        cfg = small_config()
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)
        assert config_hash(small_config(seed=4)) != config_hash(cfg)

    @pytest.mark.parametrize("field,value", [
        ("provider_fallback", "orcale"), ("provider_fallback", "llm"),
        ("invalid_route_fallback", "orcale"), ("invalid_route_fallback", "none"),
    ])
    def test_bad_fallback_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field,value,message", [
        ("eval_episodes", 0, "eval_episodes must be >= 1"),
        ("eval_episodes", -1, "eval_episodes must be >= 1"),
        ("time_penalty", float("nan"), "time_penalty must be finite"),
        ("shaping_coef", float("inf"), "shaping_coef must be finite"),
        ("arrival_bonus", -float("inf"), "arrival_bonus must be finite"),
        ("learning_rate", float("inf"), "learning_rate must be finite"),
        ("llm_temperature", float("nan"), "llm_temperature must be finite"),
        ("llm_temperature", float("inf"), "llm_temperature must be finite"),
        ("llm_temperature", -0.1, "llm_temperature must be >= 0"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("update_epochs", 1.5, "update_epochs must be an integer"),
        ("steps_per_episode", 7.9, "steps_per_episode must be an integer"),
        ("n_agents", True, "n_agents must be an integer, got True"),
        ("demo_interval", "2", "demo_interval must be an integer"),
        ("eval_episodes", 1.0, "eval_episodes must be an integer"),
        ("checkpoint_every", None, "checkpoint_every must be an integer"),
        ("seed", np.int64(3), "seed must be an integer"),
        ("congestion", "no", "congestion must be true or false, got 'no'"),
        ("congestion", 1, "congestion must be true or false"),
        pytest.param("n_agents", MAX_AGENTS + 1, f"n_agents must be <= {MAX_AGENTS}, got {MAX_AGENTS + 1}",
                     id="n_agents_above_bound"),
        pytest.param("eval_episodes", MAX_EVAL_EPISODES + 1,
                     f"eval_episodes must be <= {MAX_EVAL_EPISODES}, got {MAX_EVAL_EPISODES + 1}",
                     id="eval_episodes_above_bound"),
    ])
    def test_values_that_crash_or_poison_a_run_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})
        TrainConfig(llm_temperature=0.0)  # greedy sampling stays allowed

    def test_reward_scale_whose_returns_square_past_the_largest_float_rejected(self, grid3_setup):
        """On grid 3 (summed edge length 24) over 20 steps, a time penalty of 1e152 bounds each squared
        return below the largest float and trains; 1e153 does not, and the trainer is not built."""
        graph, specs = grid3_setup
        trainer = Trainer(small_config(epochs=1, steps_per_episode=20, time_penalty=1e152), graph, specs).train()
        assert np.isfinite(trainer.metrics[-1].loss_value_a)
        with pytest.raises(TrainingError, match="time_penalty 1e\\+153"):
            Trainer(small_config(steps_per_episode=20, time_penalty=1e153), graph, specs)

    def test_learning_rate_at_its_bound_trains_with_finite_losses(self, grid3_setup):
        """The largest rate ``TrainConfig`` admits for 2 epochs of 4 Adam steps trains them with finite losses;
        the next float up is rejected.  IPPO, since the bound leaves out the guided modes' expert importance
        ratio, which overflows at far smaller rates."""
        lo, hi = 1.0, 1e100  # admitted and rejected; narrowed to adjacent floats
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2 if hi < 2 * lo else math.sqrt(lo * hi)
            try:
                small_config(mode="ippo", epochs=2, learning_rate=mid)
                lo = mid
            except ValueError as exc:
                assert "learning_rate" in str(exc)
                hi = mid
        assert 1e46 < lo < 1e49
        graph, specs = grid3_setup
        trainer = Trainer(small_config(mode="ippo", epochs=2, learning_rate=lo), graph, specs).train()
        assert len(trainer.metrics) == 2
        assert all(np.isfinite([m.loss_policy, m.loss_value_a]).all() for m in trainer.metrics)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_values_of_another_type_rejected(self, field):
        annotation = next(f.type for f in dataclasses.fields(TrainConfig) if f.name == field)
        wrong = {"int": [1.5, True], "float": [True, "x"], "bool": [1], "str": [5], "str | None": [5]}
        for value in wrong[annotation]:
            with pytest.raises(ValueError, match=f"^{field} must be "):
                TrainConfig(**{field: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"learning_rte": 1e-3})


class TestSpecGeneration:
    def test_deterministic_and_prefix_stable(self, grid5):
        a = generate_agent_specs(grid5, 5, seed=9)
        b = generate_agent_specs(grid5, 5, seed=9)
        assert a == b
        # growing the population must not reshuffle existing agents' tasks
        bigger = generate_agent_specs(grid5, 8, seed=9)
        assert bigger[:5] == a

    def test_specs_routable(self, hilly):
        for spec in generate_agent_specs(hilly, 6, seed=2):
            assert hilly.shortest_path(spec.start, spec.dest) is not None


class TestRollout:
    def test_fixed_seed_identical(self, grid3_setup):
        graph, specs = grid3_setup
        env = RouteEnv(graph, specs, step_limit=30)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(2)]

        def run():
            rngs = [agent_rng(0, 1, i) for i in range(2)]
            return rollout(env, policy_table(env, policies), rngs)

        a, b = run(), run()
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.junction_path, tb.junction_path)
            np.testing.assert_array_equal(ta.rewards, tb.rewards)
            np.testing.assert_array_equal(ta.logps, tb.logps)

    @pytest.mark.parametrize("greedy", [False, True])
    def test_matches_per_agent_reference_loop(self, grid5, greedy):
        """The stacked rollout equals one policy forward and one draw per agent and step."""
        specs = (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0, depart_time=3), AgentSpec(2, 4, 20),
                 AgentSpec(3, 12, 13, depart_time=1), AgentSpec(4, 20, 4))
        env = RouteEnv(grid5, specs, step_limit=40, congestion=True)
        rng = np.random.default_rng(8)
        policies = [nets.init_mlp(agent_rng(1, 0, i), env.obs_dim, env.n_actions) for i in range(5)]
        for p in policies:
            p.weights[-1][...] = rng.normal(scale=2.0, size=p.weights[-1].shape)
        trajs = rollout(env, policy_table(env, policies),
                        None if greedy else [agent_rng(1, 1, i) for i in range(5)], greedy=greedy)
        assert episode_record(trajs) == episode_record(
            policy_episode(env, policies, None if greedy else [agent_rng(1, 1, i) for i in range(5)]))
        for i, tau in enumerate(trajs):
            np.testing.assert_array_equal(tau.obs_matrix(), env.agent_tables(i)[0][tau.junction_path[:-1]])
        assert sum(len(t) for t in trajs) > 20

    def test_draw_matches_generator_choice(self):
        """``draw`` picks what ``rng.choice(m, p=row)`` picks and leaves each generator in the same state."""
        rng = np.random.default_rng(4)
        masks = np.array([[True, False, True, True],     # a masked zero inside
                          [False, False, True, False],   # a single valid action
                          [False, True, True, False],    # masked zeros at both ends
                          [True, True, True, True]])
        for scale in (3.0, 1.0, 1e-9, 0.0):  # the last two: near-uniform and uniform rows
            logits = rng.normal(scale=scale, size=(40, 4))
            _, probs, _ = nets.masked_log_softmax(logits, masks[np.arange(40) % 4])
            seeds = rng.integers(2**32, size=40)
            ours, ref = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
            cdf = choice_cdf(probs).tolist()
            for _ in range(25):
                assert [draw(row, g) for row, g in zip(cdf, ours)] == [r.choice(4, p=p) for r, p in zip(ref, probs)]
            assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in ref]

    def test_draw_on_a_cdf_entry_counts_it(self):
        """A draw equal to a cdf entry counts that entry, as ``searchsorted(..., 'right')`` does."""
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        row = np.array([0.0, 0.5, 0.5, 0.0])  # masked slots at both ends
        cdf = choice_cdf(row[None])[0]
        draws = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        assert [draw(cdf.tolist(), Fixed(u)) for u in draws] == \
            [int(np.searchsorted(cdf, u, side="right")) for u in draws] == [1, 2, 2]

    def test_draw_rejects_what_generator_choice_rejects(self):
        rows = np.array([[0.5, 0.5], [np.nan, 1.0], [0.7, 0.4], [-0.1, 1.1], [np.inf, 0.0]])
        cdf = choice_cdf(rows).tolist()
        assert draw(cdf[0], np.random.default_rng(0)) == np.random.default_rng(0).choice(2, p=rows[0])
        for r in range(1, len(rows)):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, p=rows[r])
            rng = np.random.default_rng(1)
            with pytest.raises(ValueError, match="probabilities"):
                draw(cdf[r], rng)
            assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state  # nothing drawn

    def test_nan_policy_row_raises_when_sampled(self, grid3_setup):
        graph, specs = grid3_setup
        env = RouteEnv(graph, specs, step_limit=10)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(2)]
        policies[1].biases[-1][0] = np.nan  # every row where slot 0 is valid, the start included
        with pytest.raises(ValueError, match="probabilities"):
            rollout(env, policy_table(env, policies), [agent_rng(0, 1, i) for i in range(2)])

    def test_uniform_policy_action_frequencies(self, line):
        # zero-init final layer => uniform over valid actions; junction 1 of a
        # 3-chain with both directions has 2 actions
        from routecoach.graph import Edge, RoadGraph
        g = RoadGraph({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                      [Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(1, 2, 1.0), Edge(2, 1, 1.0)])
        env = RouteEnv(g, (AgentSpec(0, 1, 2),), step_limit=1)
        policy = nets.init_mlp(agent_rng(0, 0, 0), env.obs_dim, env.n_actions)
        rng = agent_rng(0, 1, 0)
        first_actions = []
        for _ in range(1000):
            traj = rollout(env, policy_table(env, [policy]), [rng])[0]
            first_actions.append(traj.actions[0])
        freq = np.bincount(first_actions, minlength=2) / 1000
        chi2 = ((freq - 0.5) ** 2 / 0.5).sum() * 1000
        assert chi2 < 10.83  # p > 0.001 for 1 dof

    def test_lengths_capped_by_step_limit(self, grid5):
        specs = tuple(AgentSpec(i, i, 24 - i) for i in range(10))
        env = RouteEnv(grid5, specs, step_limit=200)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(10)]
        rngs = [agent_rng(0, 1, i) for i in range(10)]
        trajs = rollout(env, policy_table(env, policies), rngs)
        assert len(trajs) == 10
        assert all(len(t) <= 200 for t in trajs)

    def test_sampling_needs_rngs(self, grid3_setup):
        graph, specs = grid3_setup
        env = RouteEnv(graph, specs, step_limit=10)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(2)]
        with pytest.raises(ValueError, match="sampling rollouts need per-agent rngs"):
            rollout(env, policy_table(env, policies), None)

    def test_greedy_needs_no_rng(self, grid3_setup):
        graph, specs = grid3_setup
        env = RouteEnv(graph, specs, step_limit=10)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(2)]
        a = rollout(env, policy_table(env, policies), None, greedy=True)
        b = rollout(env, policy_table(env, policies), None, greedy=True)
        assert [t.junction_path.tolist() for t in a] == [t.junction_path.tolist() for t in b]


class TestUpdateAgent:
    def _learner_and_trajs(self, mode="dynamic", seed=0):
        graph = grid_graph(3)
        specs = (AgentSpec(0, 0, 8),)
        cfg = small_config(n_agents=1, mode=mode, seed=seed)
        trainer = Trainer(cfg, graph, specs)
        tau_a = rollout(trainer.env, policy_table(trainer.env, [trainer.learners[0].policy]),
                        [trainer.learners[0].rng])[0]
        tau_e = dg.execute_demos(graph, specs, dg.oracle_expert(graph, specs),
                                 step_limit=cfg.steps_per_episode)[0]
        return trainer, cfg, tau_a, tau_e

    def test_ippo_mode_ignores_expert(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs(mode="ippo")
        learner = trainer.learners[0]
        before = learner.value_e.data.copy()
        stats, = update_agent([learner], [tau_a], [tau_e], 1, cfg)
        # expert value net untouched, expert loss not reported
        np.testing.assert_array_equal(learner.value_e.data, before)
        assert np.isnan(stats["loss_value_e"])

    def test_dtw_zero_weights_out_expert(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs()
        assert L.alpha_weight(3, cfg.epochs, 0.0) == 1.0

    def test_updates_are_finite_and_change_params(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs()
        learner = trainer.learners[0]
        learner.alpha = 0.5
        before = learner.policy.data.copy()
        stats, = update_agent([learner], [tau_a], [tau_e], 1, cfg)
        assert np.isfinite(stats["loss_policy"])
        assert np.isfinite(stats["loss_value_a"])
        assert np.isfinite(stats["loss_value_e"])
        assert not np.array_equal(before, learner.policy.data)


    @pytest.mark.parametrize("batch", ["own", "expert"])
    def test_non_finite_value_loss_raises_before_its_step(self, batch):
        """A batch whose squared errors overflow raises, and its value head is not stepped."""
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs()
        learner = trainer.learners[0]
        tau = tau_a if batch == "own" else tau_e
        huge = Trajectory(tau.agent_id, tau.junction_path, tau.actions, tau.rewards * 1e200,
                          tau.obs_table, tau.mask_table, tau.arrived, tau.terminated, tau.logps)
        if batch == "own":
            tau_a = huge
        else:
            tau_e = huge
        head = learner.value_a if batch == "own" else learner.value_e
        before = head.data.copy()
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=f"non-finite {batch} value loss at epoch 1"):
            update_agent([learner], [tau_a], [tau_e], 1, cfg)
        np.testing.assert_array_equal(head.data, before)

class TestUpdateTogether:
    """One update call over every agent gives each agent the bytes of updating it alone."""

    SPECS = (AgentSpec(0, 0, 15), AgentSpec(1, 3, 12), AgentSpec(2, 5, 10), AgentSpec(3, 12, 3),
             AgentSpec(4, 15, 0))
    ALPHAS = (0.3, 1.0, 0.6, 0.05, 0.8)

    def _batches(self, cfg):
        """Rollouts and oracle demos; agent 2's own trajectory is empty, agent 3 has no demo."""
        trainer = Trainer(cfg, grid_graph(4), self.SPECS)
        tau_a = rollout(trainer.env, policy_table(trainer.env, [ln.policy for ln in trainer.learners]),
                        [ln.rng for ln in trainer.learners])
        t = tau_a[2]
        tau_a[2] = Trajectory(2, t.junction_path[:1], t.actions[:0], t.rewards[:0], t.obs_table,
                              t.mask_table, logps=t.logps[:0])
        tau_e = dg.replay(trainer.env, dg.oracle_expert(trainer.env.graph, self.SPECS))
        return tau_a, [tau_e[0], tau_e[1], tau_e[2], None, tau_e[4]]

    def _update(self, cfg, agents, tau_a, tau_e):
        """Fresh learners, ``agents`` of them updated in one call: (every agent's bytes, stats by agent)."""
        learners = Trainer(cfg, grid_graph(4), self.SPECS).learners
        for learner, alpha in zip(learners, self.ALPHAS):
            learner.alpha = alpha
        stats = update_agent([learners[i] for i in agents], [tau_a[i] for i in agents],
                             [tau_e[i] for i in agents], 1, cfg)
        state = [b"".join(a.tobytes() for a in (
                     ln.policy.data, ln.value_a.data, ln.value_e.data, ln.adam_policy.m, ln.adam_policy.v,
                     ln.adam_value_a.m, ln.adam_value_a.v, ln.adam_value_e.m, ln.adam_value_e.v))
                 for ln in learners]
        return state, dict(zip(agents, map(repr, stats)))

    @pytest.mark.parametrize("mode", ["dynamic", "ippo"])
    def test_together_equals_alone(self, mode):
        cfg = small_config(n_agents=5, mode=mode, update_epochs=2, steps_per_episode=30)
        tau_a, tau_e = self._batches(cfg)
        state, stats = self._update(cfg, range(5), tau_a, tau_e)
        for i in range(5):
            alone_state, alone_stats = self._update(cfg, [i], tau_a, tau_e)
            assert (alone_state[i], alone_stats[i]) == (state[i], stats[i]), f"agent {i}"
        # the agent with the empty trajectory keeps its initial networks and reports no losses
        initial, _ = self._update(cfg, [], tau_a, tau_e)
        assert [state[i] == initial[i] for i in range(5)] == [False, False, True, False, False]
        assert stats[2] == repr(dict.fromkeys(("loss_policy", "loss_value_a", "loss_value_e"), float("nan")))

    def test_no_sharing_other_agents_bytes_do_not_move(self):
        cfg = small_config(n_agents=5, update_epochs=2, steps_per_episode=30)
        tau_a, tau_e = self._batches(cfg)
        before = self._update(cfg, range(5), tau_a, tau_e)[0]
        t = tau_a[0]
        tau_a[0] = Trajectory(0, t.junction_path, t.actions, t.rewards + 1.0, t.obs_table, t.mask_table,
                              arrived=t.arrived, terminated=t.terminated, logps=t.logps)
        after = self._update(cfg, range(5), tau_a, tau_e)[0]
        assert [after[i] == before[i] for i in range(5)] == [False, True, True, True, True]


class TestTrainerLoop:
    def test_one_environment_per_training_run(self, grid3_setup, monkeypatch):
        graph, specs = grid3_setup
        built = []
        original = RouteEnv.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RouteEnv, "__init__", counting)
        trainer = Trainer(small_config(epochs=4, demo_interval=1), graph, specs)
        trainer.train()
        assert built == [trainer.env]
        assert trainer.learners[0].last_expert.logps is None

    def test_demo_regeneration_schedule(self, grid3_setup):
        graph, specs = grid3_setup
        calls = []
        cfg = small_config(epochs=20, demo_interval=5)
        trainer = Trainer(cfg, graph, specs)
        original = trainer._propose_routes

        def spying():
            calls.append(len(trainer.metrics) + 1)
            return original()

        trainer._propose_routes = spying
        for _ in range(20):
            trainer.run_epoch()
        assert calls == [1, 5, 10, 15, 20]

    def test_demos_reused_between_regenerations(self, grid3_setup):
        graph, specs = grid3_setup
        cfg = small_config(epochs=4, demo_interval=3)
        trainer = Trainer(cfg, graph, specs)
        trainer.run_epoch()
        kept = [ln.last_expert for ln in trainer.learners]
        trainer.run_epoch()  # epoch 2: no regeneration
        assert [ln.last_expert for ln in trainer.learners] == kept
        trainer.run_epoch()  # epoch 3: regenerated
        assert any(ln.last_expert is not k for ln, k in zip(trainer.learners, kept))

    def test_alpha_held_between_regenerations(self, grid3_setup):
        graph, specs = grid3_setup
        cfg = small_config(epochs=4, demo_interval=4)
        trainer = Trainer(cfg, graph, specs)
        m1 = trainer.run_epoch()
        m2 = trainer.run_epoch()
        m3 = trainer.run_epoch()
        assert m1.alpha == m2.alpha == m3.alpha

    def test_metrics_csv_deterministic(self, tmp_path, grid3_setup):
        graph, specs = grid3_setup
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            Trainer(small_config(), graph, specs).train(out_dir=out)
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        header = (out_a / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(METRICS_COLUMNS)
        assert (out_a / "timing.csv").exists()

    def test_mock_provider_run_deterministic(self, tmp_path, grid3_setup):
        graph, specs = grid3_setup
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
        (mock_dir / "001.txt").write_text('{"0": [0, 3, 6, 7, 8], "1": [2, 5, 8, 7, 6]}')
        cfg = small_config(expert_provider="llm", mock_dir=str(mock_dir))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            Trainer(cfg, graph, specs, completer=MockChatCompleter(mock_dir)).train(out_dir=out)
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_routes_fall_back_and_count(self, grid3_setup, tmp_path):
        graph, specs = grid3_setup
        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        # agent 0 valid, agent 1 invalid (no edge 2 -> 6)
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 6]}')
        cfg = small_config(epochs=1, expert_provider="llm", mock_dir=str(mock_dir))
        trainer = Trainer(cfg, graph, specs, completer=MockChatCompleter(mock_dir))
        metrics = trainer.run_epoch()
        assert metrics.validity_rate == 50.0
        assert trainer.learners[1].last_expert.junction_path.tolist() == graph.shortest_path(2, 6)[1]
        assert trainer.learners[1].last_expert.arrived

    def test_llm_failure_falls_back_to_oracle(self, grid3_setup):
        graph, specs = grid3_setup

        class Exploding:
            def complete(self, prompt):
                raise LlmError("endpoint down")

        cfg = small_config(epochs=1, expert_provider="llm", provider_fallback="oracle")
        trainer = Trainer(cfg, graph, specs, completer=Exploding())
        metrics = trainer.run_epoch()
        assert metrics.validity_rate == 100.0
        assert trainer.learners[0].last_expert is not None

    def test_task_count_other_than_n_agents_rejected(self, grid3_setup):
        graph, specs = grid3_setup
        with pytest.raises(TrainingError, match="^2 tasks for n_agents=3$"):
            Trainer(small_config(n_agents=3), graph, specs)

    def test_ippo_has_no_demonstrations(self, grid3_setup):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(mode="ippo"), graph, specs)
        table = policy_table(trainer.env, [ln.policy for ln in trainer.learners])
        tau_a = rollout(trainer.env, table, [ln.rng for ln in trainer.learners])
        with pytest.raises(TrainingError, match="no demonstrations available from provider 'none'"):
            trainer.demonstrate(tau_a)

    def test_unconfigured_llm_provider_fails_at_construction(self, grid3_setup, monkeypatch):
        graph, specs = grid3_setup
        monkeypatch.delenv("ROUTECOACH_LLM_BASE_URL", raising=False)
        with pytest.raises(LlmError, match="ROUTECOACH_LLM_BASE_URL"):
            Trainer(small_config(expert_provider="llm"), graph, specs)

    def test_prompt_refined_only_for_text_provider(self, grid3_setup, tmp_path):
        graph, specs = grid3_setup
        cfg = small_config(epochs=2, demo_interval=1)
        trainer = Trainer(cfg, graph, specs)
        trainer.run_epoch()
        assert trainer.prompt_state.rounds == 0  # oracle provider: no feedback round
        assert "Feedback round" not in build_prompt(trainer.prompt_state)

        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
        cfg = small_config(epochs=2, demo_interval=1, expert_provider="llm",
                           mock_dir=str(mock_dir))
        trainer = Trainer(cfg, graph, specs, completer=MockChatCompleter(mock_dir))
        trainer.run_epoch()
        trainer.run_epoch()
        assert trainer.prompt_state.rounds == 2
        # the last round renders its routes as plain junction ids; numpy ints would read np.int64(..)
        last_round = build_prompt(trainer.prompt_state).split("--- Feedback round 2 ---\n")[1]
        assert "agent 0 expert route [0, 1, 2, 5, 8]" in last_round

    def test_checkpoints_written_and_loadable(self, tmp_path, grid3_setup):
        graph, specs = grid3_setup
        cfg = small_config(epochs=4, checkpoint_every=2)
        trainer = Trainer(cfg, graph, specs)
        trainer.train(out_dir=tmp_path / "run")
        params, manifest = load_checkpoint(tmp_path / "run" / "checkpoints", config_hash(cfg), trainer.env)
        assert manifest["epoch"] == 4
        assert manifest["config_hash"] == config_hash(cfg)
        assert len(params) == 2
        for agent_params, learner in zip(params, trainer.learners):
            np.testing.assert_array_equal(agent_params["policy"].data, learner.policy.data)

    @pytest.mark.parametrize("every, epochs, saved", [(2, 4, [2, 4]), (2, 5, [2, 4, 5]), (0, 3, [3]), (1, 2, [1, 2])])
    def test_each_checkpoint_written_once(self, tmp_path, grid3_setup, monkeypatch, every, epochs, saved):
        graph, specs = grid3_setup
        cfg = small_config(epochs=epochs, checkpoint_every=every)
        written, save = [], training.save_checkpoint

        def counting_save(directory, learners, config, epoch):
            written.append(epoch)
            return save(directory, learners, config, epoch)

        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        trainer = Trainer(cfg, graph, specs).train(out_dir=tmp_path)
        assert written == saved
        assert load_checkpoint(tmp_path / "checkpoints", config_hash(cfg), trainer.env)[1]["epoch"] == epochs


class TestRunLength:
    """A trainer runs ``config.epochs`` epochs once; ``len(metrics)`` counts them."""

    @staticmethod
    def _state(trainer):
        return (repr(trainer.metrics), [learner_bytes(ln) for ln in trainer.learners],
                [ln.rng.bit_generator.state for ln in trainer.learners], trainer.demo_rng.bit_generator.state)

    @pytest.mark.parametrize("mode", ["dynamic", "fixed-alpha:0.5", "logit-ppo", "ippo"])
    def test_epoch_past_the_configured_count_raises_and_changes_nothing(self, grid3_setup, mode):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(mode=mode, epochs=2, demo_interval=1), graph, specs)
        assert [trainer.run_epoch().epoch for _ in range(2)] == [1, 2]
        before = self._state(trainer)
        with pytest.raises(TrainingError, match="2 epochs have all run"):
            trainer.run_epoch()
        assert self._state(trainer) == before

    @pytest.mark.parametrize("mode", ["dynamic", "ippo"])
    def test_second_train_raises_and_leaves_the_run_directory(self, tmp_path, grid3_setup, mode):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(mode=mode, epochs=2, demo_interval=1), graph, specs)
        trainer.train(out_dir=tmp_path)
        files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        with pytest.raises(TrainingError, match="has run 2 epochs"):
            trainer.train(out_dir=tmp_path)
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files
        assert len(trainer.metrics) == 2


class TestReleasedMoments:
    """After the run's last update each learner keeps its networks and releases its Adam moments."""

    ADAMS = ("adam_policy", "adam_value_a", "adam_value_e")

    def _released(self, trainer):
        return [getattr(ln, name) is None for ln in trainer.learners for name in self.ADAMS]

    @pytest.mark.parametrize("mode", ["dynamic", "ippo"])
    def test_each_epoch_but_the_last_holds_the_moments(self, grid3_setup, mode):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(mode=mode, epochs=3), graph, specs)
        for k in (1, 2, 3):
            trainer.run_epoch()
            assert self._released(trainer) == [k == 3] * 6, f"epoch {k}"

    def test_train_returns_a_trainer_without_moments(self, grid3_setup):
        graph, specs = grid3_setup
        assert self._released(Trainer(small_config(epochs=2), graph, specs).train()) == [True] * 6

    def test_update_of_a_released_learner_raises_naming_it_and_changes_nothing(self, grid3_setup):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(epochs=2), graph, specs).train()
        learners = trainer.learners
        before = [learner_bytes(ln) for ln in learners]
        with pytest.raises(TrainingError, match="agent 0: no optimizer state"):
            update_agent(learners, [ln.last_agent for ln in learners], [ln.last_expert for ln in learners], 3,
                         trainer.config)
        assert [learner_bytes(ln) for ln in learners] == before


class TestIppoGoldenEquivalence:
    def _assert_trainer_matches_primitives(self, cfg, graph, specs):
        for learner, golden in zip(Trainer(cfg, graph, specs).train().learners, primitive_build(cfg, graph, specs)):
            np.testing.assert_array_equal(learner.policy.data, golden.policy.data)
            np.testing.assert_array_equal(learner.value_a.data, golden.value_a.data)
            np.testing.assert_array_equal(learner.value_e.data, golden.value_e.data)

    def test_matches_expert_free_build(self, grid3_setup):
        """IPPO through the full trainer equals a loop with no expert code."""
        graph, specs = grid3_setup
        self._assert_trainer_matches_primitives(small_config(mode="ippo", epochs=5), graph, specs)

    def test_expert_branch_matches_primitive_build(self, grid3_setup):
        """Dynamic/oracle, demos reused between regenerations, equals the primitive loop."""
        graph, specs = grid3_setup
        cfg = small_config(mode="dynamic", epochs=6, demo_interval=2)
        self._assert_trainer_matches_primitives(cfg, graph, specs)

    @pytest.mark.parametrize("mode", ["dynamic", "ippo"])
    def test_truncated_episodes_match_primitive_build(self, grid3_setup, mode):
        """Both routes need 4 steps, so a 3-step limit cuts every agent and expert
        episode short and both value heads bootstrap the tail."""
        graph, specs = grid3_setup
        cfg = small_config(mode=mode, epochs=6, demo_interval=2, steps_per_episode=3)
        self._assert_trainer_matches_primitives(cfg, graph, specs)

    @pytest.mark.parametrize("mode", ["dynamic", "ippo"])
    def test_hilly_graph_matches_primitive_build(self, mode):
        """Unequal edge lengths: the only golden build in which adding the arrival bonus before
        or after the shaping term changes the bits of an arriving move."""
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 8, 0), AgentSpec(2, 2, 6))
        cfg = small_config(mode=mode, n_agents=3, epochs=6, demo_interval=2, steps_per_episode=20, seed=3)
        self._assert_trainer_matches_primitives(cfg, hilly_graph(), specs)


class TestPolicyTableCache:
    """The trainer's one table per parameter version serves what a freshly computed one would."""

    @staticmethod
    def _fresh(trainer):
        """Module ``evaluate`` and the next rollout, from copies of the learners' policies and rngs."""
        policies = [ln.policy.like(ln.policy.data.copy()) for ln in trainer.learners]
        rngs = [copy.deepcopy(ln.rng) for ln in trainer.learners]
        return (evaluate(policies, trainer.env, 1),
                rollout(trainer.env, policy_table(trainer.env, policies), rngs))

    def test_evaluate_and_next_rollout_follow_the_parameters(self, grid3_setup, monkeypatch):
        graph, specs = grid3_setup
        trainer = Trainer(small_config(epochs=5), graph, specs)
        real_update = training.update_agent

        def update_then_raise(*args):
            real_update(*args)
            raise TrainingError("update failed after stepping")

        for epoch in range(5):
            expected_eval, expected_tau = self._fresh(trainer)
            assert trainer.evaluate(1).per_agent.tobytes() == expected_eval.per_agent.tobytes()
            if epoch == 2:  # the parameters move, then the update raises
                monkeypatch.setattr(training, "update_agent", update_then_raise)
                with pytest.raises(TrainingError, match="after stepping"):
                    trainer.run_epoch()
                monkeypatch.undo()
            else:
                trainer.run_epoch()
            for learner, tau in zip(trainer.learners, expected_tau):
                got = learner.last_agent
                assert got.junction_path.tolist() == tau.junction_path.tolist()
                assert got.actions.tolist() == tau.actions.tolist()
                assert got.rewards.tobytes() == tau.rewards.tobytes()
                assert got.logps.tobytes() == tau.logps.tobytes()
        assert len(trainer.metrics) == 4
        expected_eval, _ = self._fresh(trainer)
        assert trainer.evaluate(1).per_agent.tobytes() == expected_eval.per_agent.tobytes()


class TestEvaluate:
    def test_oracle_imprinted_policy_is_optimal(self, line, line_specs):
        # train long enough on the 3-junction chain that greedy follows it
        cfg = TrainConfig(n_agents=1, epochs=30, steps_per_episode=20,
                          demo_interval=5, expert_provider="oracle", mode="dynamic", seed=0)
        trainer = Trainer(cfg, line, line_specs)
        trainer.train()
        result = trainer.evaluate(5)
        best = 10.9 + 0.9  # the chain's optimal return
        assert result.episode_rewards == pytest.approx(np.full(5, best))

    def test_stats_shape(self, grid3_setup):
        graph, specs = grid3_setup
        cfg = small_config(epochs=1)
        trainer = Trainer(cfg, graph, specs)
        trainer.run_epoch()
        result = trainer.evaluate(20)
        assert result.episode_rewards.shape == (20,)
        assert result.per_agent.shape == (2,)
        assert np.isfinite(result.mean)


    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_policy_count_differing_from_agent_count_raises(self, grid5, count):
        env = RouteEnv(grid5, tuple(AgentSpec(i, i, 24 - i) for i in range(3)))
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(count)]
        with pytest.raises(ValueError, match=f"^{count} policies for an environment of 3 agents$"):
            evaluate(policies, env, 1)


class TestTrendSanity:
    def test_reward_trend_is_increasing(self):
        # guided training on the small grid should trend upward
        import scipy.stats

        graph = grid_graph(3)
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 8, 0))
        cfg = TrainConfig(n_agents=2, epochs=80, steps_per_episode=40,
                          expert_provider="oracle", mode="dynamic", seed=5)
        trainer = Trainer(cfg, graph, specs)
        rewards = [trainer.run_epoch().mean_reward_a for _ in range(cfg.epochs)]
        smoothed = np.array([np.mean(rewards[max(0, t - 9):t + 1]) for t in range(len(rewards))])
        rho = scipy.stats.spearmanr(np.arange(len(smoothed)), smoothed).statistic
        assert rho > 0.5

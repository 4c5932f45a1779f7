import numpy as np
import pytest

from routecoach import AgentSpec, grid_graph, line_graph
from routecoach import demos as dg
from routecoach import losses as L
from routecoach import nets
from routecoach.env import RouteEnv
from routecoach.llm import MockChatCompleter
from routecoach.trajectory import dtw_distance, traj_to_feature_seq
from routecoach.training import (
    ALPHA_FLOOR,
    METRICS_COLUMNS,
    TrainConfig,
    Trainer,
    agent_rng,
    config_hash,
    evaluate,
    generate_agent_specs,
    load_checkpoint,
    rollout,
    save_checkpoint,
    update_agent,
)


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
            return rollout(env, policies, rngs, seed=0)

        a, b = run(), run()
        for ta, tb in zip(a, b):
            assert ta.junction_path == tb.junction_path
            np.testing.assert_array_equal(ta.rewards(), tb.rewards())
            np.testing.assert_array_equal(ta.log_probs_behavior(), tb.log_probs_behavior())

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
            traj = rollout(env, [policy], [rng], seed=0)[0]
            first_actions.append(traj.transitions[0].action)
        freq = np.bincount(first_actions, minlength=2) / 1000
        chi2 = ((freq - 0.5) ** 2 / 0.5).sum() * 1000
        assert chi2 < 10.83  # p > 0.001 for 1 dof

    def test_lengths_capped_by_step_limit(self, grid5):
        specs = tuple(AgentSpec(i, i, 24 - i) for i in range(10))
        env = RouteEnv(grid5, specs, step_limit=200)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(10)]
        rngs = [agent_rng(0, 1, i) for i in range(10)]
        trajs = rollout(env, policies, rngs, seed=0)
        assert len(trajs) == 10
        assert all(len(t) <= 200 for t in trajs)

    def test_greedy_needs_no_rng(self, grid3_setup):
        graph, specs = grid3_setup
        env = RouteEnv(graph, specs, step_limit=10)
        policies = [nets.init_mlp(agent_rng(0, 0, i), env.obs_dim, env.n_actions) for i in range(2)]
        a = rollout(env, policies, None, greedy=True)
        b = rollout(env, policies, None, greedy=True)
        assert [t.junction_path for t in a] == [t.junction_path for t in b]


class TestUpdateAgent:
    def _learner_and_trajs(self, mode="dynamic", seed=0):
        graph = grid_graph(3)
        specs = (AgentSpec(0, 0, 8),)
        cfg = small_config(n_agents=1, mode=mode, seed=seed)
        trainer = Trainer(cfg, graph, specs)
        tau_a = rollout(trainer.env, [trainer.learners[0].policy],
                        [trainer.learners[0].rng], seed=0)[0]
        tau_e = dg.execute_demos(graph, specs, dg.oracle_expert(graph, specs),
                                 step_limit=cfg.steps_per_episode)[0]
        return trainer, cfg, tau_a, tau_e

    def test_ippo_mode_ignores_expert(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs(mode="ippo")
        learner = trainer.learners[0]
        before = learner.value_e.copy()
        stats = update_agent(learner, tau_a, tau_e, 1, cfg.epochs, cfg)
        # expert value net untouched, expert loss not reported
        for w0, w1 in zip(before.weights, learner.value_e.weights):
            np.testing.assert_array_equal(w0, w1)
        assert np.isnan(stats["loss_value_e"])

    def test_dtw_zero_weights_out_expert(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs()
        assert L.alpha_weight(3, cfg.epochs, 0.0) == 1.0

    def test_updates_are_finite_and_change_params(self):
        trainer, cfg, tau_a, tau_e = self._learner_and_trajs()
        learner = trainer.learners[0]
        learner.alpha = 0.5
        before = learner.policy.flat()
        stats = update_agent(learner, tau_a, tau_e, 1, cfg.epochs, cfg)
        assert np.isfinite(stats["loss_policy"])
        assert np.isfinite(stats["loss_value_a"])
        assert np.isfinite(stats["loss_value_e"])
        assert not np.array_equal(before, learner.policy.flat())


class TestTrainerLoop:
    def test_demo_regeneration_schedule(self, grid3_setup):
        graph, specs = grid3_setup
        calls = []
        cfg = small_config(epochs=20, demo_interval=5)
        trainer = Trainer(cfg, graph, specs)
        original = trainer._propose_routes

        def spying():
            calls.append(trainer.epoch + 1)
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
        assert trainer.learners[1].last_expert.fallback_used
        assert trainer.learners[1].last_expert.arrived

    def test_llm_failure_falls_back_to_oracle(self, grid3_setup):
        graph, specs = grid3_setup

        class Exploding:
            def complete(self, prompt):
                from routecoach.llm import LlmError
                raise LlmError("endpoint down")

        cfg = small_config(epochs=1, expert_provider="llm", provider_fallback="oracle")
        trainer = Trainer(cfg, graph, specs, completer=Exploding())
        metrics = trainer.run_epoch()
        assert metrics.validity_rate == 100.0
        assert trainer.learners[0].last_expert is not None

    def test_prompt_refined_only_for_text_provider(self, grid3_setup, tmp_path):
        graph, specs = grid3_setup
        cfg = small_config(epochs=2, demo_interval=1)
        trainer = Trainer(cfg, graph, specs)
        trainer.run_epoch()
        assert trainer.prompt_state.records == ()  # oracle provider: no prompt loop

        mock_dir = tmp_path / "mock"
        mock_dir.mkdir()
        (mock_dir / "000.txt").write_text('{"0": [0, 1, 2, 5, 8], "1": [2, 1, 0, 3, 6]}')
        cfg = small_config(epochs=2, demo_interval=1, expert_provider="llm",
                           mock_dir=str(mock_dir))
        trainer = Trainer(cfg, graph, specs, completer=MockChatCompleter(mock_dir))
        trainer.run_epoch()
        trainer.run_epoch()
        assert len(trainer.prompt_state.records) == 2

    def test_checkpoints_written_and_loadable(self, tmp_path, grid3_setup):
        graph, specs = grid3_setup
        cfg = small_config(epochs=4, checkpoint_every=2)
        trainer = Trainer(cfg, graph, specs)
        trainer.train(out_dir=tmp_path / "run")
        params, manifest = load_checkpoint(tmp_path / "run" / "checkpoints")
        assert manifest["epoch"] == 4
        assert manifest["config_hash"] == config_hash(cfg)
        assert len(params) == 2
        for agent_params, learner in zip(params, trainer.learners):
            np.testing.assert_array_equal(agent_params["policy"].flat(), learner.policy.flat())


def _primitive_update(l, tau_a, cfg):
    """One agent's update written with the public primitives, expert branch optional."""
    tau_e = l["expert"]
    use_expert = tau_e is not None and len(tau_e) > 0
    obs, masks = tau_a.obs_matrix(), tau_a.mask_matrix()
    acts, logp_old = tau_a.actions(), tau_a.log_probs_behavior()
    tail = 0.0 if tau_a.terminated else float(nets.value_forward(l["value_a"], tau_a.terminal_obs.vector))
    returns = L.bootstrapped_returns(tau_a.rewards(), cfg.gamma, tail)
    adv = L.standardize(L.advantages(returns, nets.value_forward(l["value_a"], obs)))
    if use_expert:
        obs_e, masks_e, acts_e = tau_e.obs_matrix(), tau_e.mask_matrix(), tau_e.actions()
        tail_e = 0.0 if tau_e.terminated else float(nets.value_forward(l["value_e"], tau_e.terminal_obs.vector))
        returns_e = L.bootstrapped_returns(tau_e.rewards(), cfg.gamma, tail_e)
        adv_e = L.advantages(returns_e, nets.value_forward(l["value_e"], obs_e))
        logp_old_e = nets.policy_forward_batch(l["policy"], obs_e, masks_e)[0][np.arange(len(tau_e)), acts_e]
    for _ in range(cfg.update_epochs):
        logp_mat, _, _ = nets.policy_forward_batch(l["policy"], obs, masks)
        logp_new = logp_mat[np.arange(len(tau_a)), acts]
        dlogp = np.zeros_like(logp_mat)
        dlogp[np.arange(len(tau_a)), acts] = l["alpha"] * L.clipped_surrogate_grad(
            logp_new, logp_old, adv, cfg.clip_epsilon)
        grads = nets.policy_backward(l["policy"], obs, masks, dlogp,
                                     np.full(len(tau_a), cfg.entropy_beta / len(tau_a)))
        if use_expert:
            logp_mat_e, _, _ = nets.policy_forward_batch(l["policy"], obs_e, masks_e)
            logp_new_e = logp_mat_e[np.arange(len(tau_e)), acts_e]
            dlogp_e = np.zeros_like(logp_mat_e)
            dlogp_e[np.arange(len(tau_e)), acts_e] = (1.0 - l["alpha"]) * L.clipped_surrogate_grad(
                logp_new_e, logp_old_e, adv_e, cfg.clip_epsilon)
            grads = nets.add(grads, nets.policy_backward(l["policy"], obs_e, masks_e, dlogp_e, 0.0))
        l["policy"], l["adam_p"] = nets.adam_step(
            l["policy"], nets.neg(grads), l["adam_p"], cfg.learning_rate)
        values = nets.value_forward(l["value_a"], obs)
        dv = 2.0 * (values - returns) / len(tau_a)
        l["value_a"], l["adam_a"] = nets.adam_step(
            l["value_a"], nets.value_backward(l["value_a"], obs, dv), l["adam_a"], cfg.learning_rate)
        if use_expert:
            values_e = nets.value_forward(l["value_e"], obs_e)
            dve = 2.0 * (values_e - returns_e) / len(tau_e)
            l["value_e"], l["adam_e"] = nets.adam_step(
                l["value_e"], nets.value_backward(l["value_e"], obs_e, dve), l["adam_e"], cfg.learning_rate)


def _primitive_build(cfg, graph, specs):
    """The training loop rebuilt from the public primitives; oracle demos unless ippo."""
    env_kwargs = dict(time_penalty=cfg.time_penalty, shaping_coef=cfg.shaping_coef,
                      arrival_bonus=cfg.arrival_bonus)
    env = RouteEnv(graph, specs, step_limit=cfg.steps_per_episode, **env_kwargs)
    learners = []
    for i in range(len(specs)):
        rng = agent_rng(cfg.seed, 0, i)
        policy = nets.init_mlp(rng, env.obs_dim, env.n_actions)
        value_a = nets.init_mlp(rng, env.obs_dim, 1)
        value_e = nets.init_mlp(rng, env.obs_dim, 1)
        learners.append({
            "policy": policy, "value_a": value_a, "value_e": value_e,
            "adam_p": nets.init_adam(policy), "adam_a": nets.init_adam(value_a),
            "adam_e": nets.init_adam(value_e),
            "rng": agent_rng(cfg.seed, 1, i), "alpha": 1.0, "expert": None,
        })

    def policy_logp(i, obs, mask, action):
        return float(nets.policy_forward(learners[i]["policy"], obs, mask).log_probs[action])

    for k in range(1, cfg.epochs + 1):
        trajs = rollout(env, [l["policy"] for l in learners],
                        [l["rng"] for l in learners], seed=cfg.seed)
        if cfg.mode != "ippo" and (k == 1 or k % cfg.demo_interval == 0):
            demos = dg.execute_demos(graph, specs, dg.oracle_expert(graph, specs),
                                     policy_logp=policy_logp, seed=cfg.seed,
                                     step_limit=cfg.steps_per_episode, env_kwargs=env_kwargs)
            for i, l in enumerate(learners):
                l["expert"] = demos[i]
                dtw = dtw_distance(traj_to_feature_seq(trajs[i], graph),
                                   traj_to_feature_seq(demos[i], graph))
                l["alpha"] = max(L.alpha_weight(k, cfg.epochs, dtw), ALPHA_FLOOR)
        for l, tau in zip(learners, trajs):
            if len(tau) > 0:
                _primitive_update(l, tau, cfg)
    return learners


class TestIppoGoldenEquivalence:
    def _assert_trainer_matches_primitives(self, cfg, graph, specs):
        result = Trainer(cfg, graph, specs).train()
        for learner, golden in zip(result.learners, _primitive_build(cfg, graph, specs)):
            np.testing.assert_array_equal(learner.policy.flat(), golden["policy"].flat())
            np.testing.assert_array_equal(learner.value_a.flat(), golden["value_a"].flat())
            np.testing.assert_array_equal(learner.value_e.flat(), golden["value_e"].flat())

    def test_matches_expert_free_build(self, grid3_setup):
        """IPPO through the full trainer equals a loop with no expert code."""
        graph, specs = grid3_setup
        self._assert_trainer_matches_primitives(small_config(mode="ippo", epochs=5), graph, specs)

    def test_expert_branch_matches_primitive_build(self, grid3_setup):
        """Dynamic/oracle, demos reused between regenerations, equals the primitive loop."""
        graph, specs = grid3_setup
        cfg = small_config(mode="dynamic", epochs=6, demo_interval=2)
        self._assert_trainer_matches_primitives(cfg, graph, specs)


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
        assert np.isfinite(result.mean) and np.isfinite(result.std)


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

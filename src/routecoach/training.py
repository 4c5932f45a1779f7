"""Decentralized training loop: per-agent policies guided by expert demos.

Every epoch runs one episode of policy rollouts.  On a fixed interval
(``demo_interval``, plus the very first epoch) the expert provider is
asked for fresh instruction sets, the demos are executed, and each
agent's loss-mixing weight is recomputed from the DTW distance between
its own trajectory and its expert's; between regenerations the expert
trajectories and weights are reused.  Each agent then updates its three
networks from only its own data: no critic, parameters or trajectories
are shared between agents.

Randomness is split from the master seed with named spawn keys, so agent
``i`` keeps the same streams no matter how many agents run:

* ``[seed, 0, i]``  network initialization for agent i
* ``[seed, 1, i]``  action sampling for agent i
* ``[seed, 2]``     expert route sampling (logit provider)
* ``[seed, 3, i]``  auto-generated task (start/dest) for agent i
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import demos as dg
from . import losses as L
from . import nets
from .env import AgentSpec, RouteEnv
from .graph import INF, RoadGraph
from .llm import ChatCompleter, LlmError, MockChatCompleter
from .prompts import PromptState, build_prompt, refine_prompt
from .trajectory import AGENT_SOURCE, Trajectory, Transition, dtw_distance, traj_to_feature_seq

ALPHA_FLOOR = 1e-12  # keeps the mixing weight in (0, 1] when exp() underflows

METRICS_COLUMNS = (
    "epoch", "mean_reward_a", "mean_reward_e", "alpha_mean", "dtw_mean",
    "validity_rate", "loss_policy", "loss_value_a", "loss_value_e",
)

MODES = ("dynamic", "ippo", "logit-ppo")  # plus "fixed-alpha:<value>"
PROVIDERS = ("llm", "oracle", "logit", "none")


class TrainingError(RuntimeError):
    pass


def _nanmean(values) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


@dataclass
class TrainConfig:
    n_agents: int = 10
    epochs: int = 500
    steps_per_episode: int = 200
    gamma: float = 0.99
    clip_epsilon: float = 0.2
    entropy_beta: float = 0.01
    learning_rate: float = 3e-4
    demo_interval: int = 5
    update_epochs: int = 4
    mode: str = "dynamic"
    expert_provider: str = "oracle"
    provider_fallback: str = "oracle"
    invalid_route_fallback: str = "oracle"
    logit_temperature: float = 1.0
    seed: int = 0
    time_penalty: float = 0.1
    shaping_coef: float = 1.0
    arrival_bonus: float = 10.0
    congestion: bool = False
    checkpoint_every: int = 0
    eval_episodes: int = 20
    mock_dir: str | None = None
    llm_temperature: float = 0.2

    def __post_init__(self) -> None:
        if self.demo_interval < 1:
            raise ValueError("demo_interval must be >= 1")
        if self.expert_provider not in PROVIDERS:
            raise ValueError(f"unknown expert provider {self.expert_provider!r}")
        kind = self.mode_kind  # validates the mode string
        if self.mode == "ippo":
            self.expert_provider = "none"
        elif self.expert_provider == "none":
            raise ValueError("expert_provider 'none' requires mode 'ippo'")
        if self.mode == "logit-ppo":
            self.expert_provider = "logit"
        del kind

    @property
    def mode_kind(self) -> str:
        if self.mode in ("dynamic", "ippo", "logit-ppo"):
            return self.mode
        if self.mode.startswith("fixed-alpha:"):
            value = self.fixed_alpha
            if value is None or not 0.0 < value <= 1.0:
                raise ValueError(f"fixed alpha must be in (0, 1]: {self.mode!r}")
            return "fixed"
        raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def fixed_alpha(self) -> float | None:
        if self.mode.startswith("fixed-alpha:"):
            try:
                return float(self.mode.split(":", 1)[1])
            except ValueError:
                return None
        return None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)


def config_hash(config: TrainConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class AgentLearner:
    policy: nets.MlpParams
    value_a: nets.MlpParams
    value_e: nets.MlpParams
    adam_policy: nets.AdamState
    adam_value_a: nets.AdamState
    adam_value_e: nets.AdamState
    rng: np.random.Generator
    alpha: float = 1.0
    last_agent: Trajectory | None = None
    last_expert: Trajectory | None = None
    last_dtw: float = float("nan")


@dataclass
class EpochMetrics:
    epoch: int
    reward_a: tuple[float, ...]
    reward_e: tuple[float, ...]
    alpha: tuple[float, ...]
    dtw: tuple[float, ...]
    validity_rate: float
    loss_policy: float
    loss_value_a: float
    loss_value_e: float
    seconds: float

    @property
    def mean_reward_a(self) -> float:
        return float(np.mean(self.reward_a))

    @property
    def mean_reward_e(self) -> float:
        return float(np.mean(self.reward_e))

    def csv_row(self) -> list[str]:
        values = (
            self.epoch, self.mean_reward_a, self.mean_reward_e,
            float(np.mean(self.alpha)), float(np.mean(self.dtw)),
            self.validity_rate, self.loss_policy, self.loss_value_a, self.loss_value_e,
        )
        return [repr(v) if isinstance(v, float) else str(v) for v in values]


@dataclass
class EvalResult:
    episode_rewards: np.ndarray  # mean-over-agents reward per episode
    per_agent: np.ndarray        # mean-over-episodes reward per agent

    @property
    def mean(self) -> float:
        return float(self.episode_rewards.mean())

    @property
    def std(self) -> float:
        return float(self.episode_rewards.std())


@dataclass
class TrainResult:
    learners: list[AgentLearner]
    metrics: list[EpochMetrics]
    specs: tuple[AgentSpec, ...]


# -- seed plumbing ----------------------------------------------------------------

def agent_rng(seed: int, stream: int, agent_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, agent_id]))


def shared_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def generate_agent_specs(graph: RoadGraph, n_agents: int, seed: int) -> tuple[AgentSpec, ...]:
    """Deterministic start/destination pairs, independent per agent index."""
    specs = []
    node_ids = sorted(graph.nodes)
    for i in range(n_agents):
        rng = agent_rng(seed, 3, i)
        for _ in range(1000):
            start = int(node_ids[rng.integers(len(node_ids))])
            dist = graph.distances_from(start)
            reachable = [j for j in node_ids if j != start and dist[j] != INF]
            if reachable:
                dest = int(reachable[rng.integers(len(reachable))])
                specs.append(AgentSpec(agent_id=i, start=start, dest=dest))
                break
        else:
            raise TrainingError(f"could not draw a routable task for agent {i}")
    return tuple(specs)


# -- rollouts ------------------------------------------------------------------------

def rollout(
    env: RouteEnv,
    policies: Sequence[nets.MlpParams],
    rngs: Sequence[np.random.Generator] | None,
    *,
    seed: int = 0,
    greedy: bool = False,
) -> list[Trajectory]:
    """One episode of decentralized execution; one trajectory per agent.

    Each agent samples from its own masked policy given only its own
    observation.  ``greedy`` switches to argmax selection (evaluation).
    """
    if not greedy and rngs is None:
        raise ValueError("sampling rollouts need per-agent rngs")
    state, observations = env.reset(seed=seed)
    n = env.n_agents
    transitions: list[list[Transition]] = [[] for _ in range(n)]
    paths = [[env.specs[i].start] for i in range(n)]
    terminal_obs = list(observations)
    arrived = [False] * n
    terminated = [False] * n
    while not env.episode_done(state):
        actions: list[int | None] = [None] * n
        acting: list[tuple[int, int, float]] = []
        for i in range(n):
            if not env.active(state, i):
                continue
            out = nets.policy_forward(policies[i], observations[i].vector, observations[i].mask)
            if greedy:
                action = int(np.argmax(out.probs))
            else:
                action = int(rngs[i].choice(out.probs.size, p=out.probs))
            actions[i] = action
            acting.append((i, action, float(out.log_probs[action])))
        state, result = env.step(state, actions)
        for i, action, logp in acting:
            transitions[i].append(Transition(observations[i], action, float(result.rewards[i]), logp))
            paths[i].append(state.positions[i])
            terminal_obs[i] = result.observations[i]
            if state.done[i]:
                arrived[i] = state.arrived[i]
                terminated[i] = True
        observations = result.observations
    return [
        Trajectory(
            source=AGENT_SOURCE,
            agent_id=i,
            transitions=transitions[i],
            terminal_obs=terminal_obs[i],
            junction_path=paths[i],
            arrived=arrived[i],
            terminated=terminated[i],
        )
        for i in range(n)
    ]


# -- the per-agent update --------------------------------------------------------------

def update_agent(
    learner: AgentLearner,
    tau_a: Trajectory,
    tau_e: Trajectory | None,
    k: int,
    total_epochs: int,
    config: TrainConfig,
) -> dict[str, float]:
    """One full update round for a single agent, from its own data only.

    Computes bootstrapped returns and advantages for both trajectory
    sources, steps both value heads on their squared errors, and steps the
    policy on the negated mixed clipped-surrogate objective plus entropy
    bonus, ``update_epochs`` times over the full batch.  Each pass runs
    every network forward once per batch and backpropagates from those
    activations; the networks and their Adam moments are updated in place.
    """
    if len(tau_a) == 0:
        return {"loss_policy": float("nan"), "loss_value_a": float("nan"),
                "loss_value_e": float("nan")}
    use_expert = config.mode_kind != "ippo" and tau_e is not None and len(tau_e) > 0
    alpha = learner.alpha
    eps = config.clip_epsilon
    beta = config.entropy_beta
    lr = config.learning_rate

    obs_a, masks_a = tau_a.obs_matrix(), tau_a.mask_matrix()
    acts_a, logp_old_a = tau_a.actions(), tau_a.log_probs_behavior()
    rows_a = np.arange(len(tau_a))
    tail_a = 0.0 if tau_a.terminated else float(nets.value_forward(learner.value_a, tau_a.terminal_obs.vector))
    returns_a = L.bootstrapped_returns(tau_a.rewards(), config.gamma, tail_a)
    value_tape_a = nets.mlp_forward_tape(learner.value_a, obs_a)
    adv_a_raw = L.advantages(returns_a, value_tape_a.out[:, 0])

    # standardizing is what keeps the agent's own PPO step well-scaled; the
    # expert batch keeps its raw advantages, since zero-centering a batch
    # that is uniformly good would force half of a demonstrated route to
    # look disadvantageous
    adv_a = L.standardize(adv_a_raw)
    if use_expert:
        obs_e, masks_e = tau_e.obs_matrix(), tau_e.mask_matrix()
        acts_e = tau_e.actions()
        rows_e = np.arange(len(tau_e))
        tail_e = 0.0 if tau_e.terminated else float(nets.value_forward(learner.value_e, tau_e.terminal_obs.vector))
        returns_e = L.bootstrapped_returns(tau_e.rewards(), config.gamma, tail_e)
        value_tape_e = nets.mlp_forward_tape(learner.value_e, obs_e)
        adv_e = L.advantages(returns_e, value_tape_e.out[:, 0])
        # the expert data was not produced by the current policy; the
        # "old" policy for its ratio is the policy entering this round
        policy_tape_e = nets.policy_forward_tape(learner.policy, obs_e, masks_e)
        logp_old_e = policy_tape_e.log_probs[rows_e, acts_e]

    stats: dict[str, float] = {}
    for update in range(config.update_epochs):
        if update > 0:
            # the first pass reuses the forwards above, taken on the same
            # parameters; later passes see the parameters the last one stepped
            value_tape_a = nets.mlp_forward_tape(learner.value_a, obs_a)
            if use_expert:
                value_tape_e = nets.mlp_forward_tape(learner.value_e, obs_e)
                policy_tape_e = nets.policy_forward_tape(learner.policy, obs_e, masks_e)
        policy_tape_a = nets.policy_forward_tape(learner.policy, obs_a, masks_a)
        logp_new_a = policy_tape_a.log_probs[rows_a, acts_a]
        obj_a = L.clipped_surrogate(logp_new_a, logp_old_a, adv_a, eps)
        dlogp_a = np.zeros_like(policy_tape_a.log_probs)
        dlogp_a[rows_a, acts_a] = alpha * L.clipped_surrogate_grad(logp_new_a, logp_old_a, adv_a, eps)
        dentropy = np.full(len(tau_a), beta / len(tau_a))
        grads = nets.mlp_backward_tape(
            learner.policy, policy_tape_a.mlp, nets.policy_upstream(policy_tape_a, dlogp_a, dentropy))

        obj_e = 0.0
        if use_expert:
            logp_new_e = policy_tape_e.log_probs[rows_e, acts_e]
            obj_e = L.clipped_surrogate(logp_new_e, logp_old_e, adv_e, eps)
            dlogp_e = np.zeros_like(policy_tape_e.log_probs)
            dlogp_e[rows_e, acts_e] = (1.0 - alpha) * L.clipped_surrogate_grad(
                logp_new_e, logp_old_e, adv_e, eps)
            grads = nets.add(grads, nets.mlp_backward_tape(
                learner.policy, policy_tape_e.mlp, nets.policy_upstream(policy_tape_e, dlogp_e, 0.0)))

        mixed = L.mixed_policy_objective(obj_a, obj_e, alpha)
        total = L.total_policy_objective(mixed, float(policy_tape_a.entropy.mean()), beta)
        if not np.isfinite(total):
            raise TrainingError(f"agent {tau_a.agent_id}: non-finite policy objective at epoch {k}")
        nets.adam_step(learner.policy, nets.neg(grads), learner.adam_policy, lr)

        values_a = value_tape_a.out[:, 0]
        stats["loss_value_a"] = L.value_loss(values_a, returns_a)
        dva = 2.0 * (values_a - returns_a) / len(tau_a)
        nets.adam_step(learner.value_a, nets.mlp_backward_tape(learner.value_a, value_tape_a, dva.reshape(-1, 1)),
                       learner.adam_value_a, lr)

        if use_expert:
            values_e = value_tape_e.out[:, 0]
            stats["loss_value_e"] = L.value_loss(values_e, returns_e)
            dve = 2.0 * (values_e - returns_e) / len(tau_e)
            nets.adam_step(learner.value_e, nets.mlp_backward_tape(learner.value_e, value_tape_e, dve.reshape(-1, 1)),
                           learner.adam_value_e, lr)
        else:
            stats["loss_value_e"] = float("nan")
        stats["loss_policy"] = -total
        if not np.isfinite(stats["loss_value_a"]):
            raise TrainingError(f"agent {tau_a.agent_id}: non-finite value loss at epoch {k}")
    return stats


# -- the trainer -------------------------------------------------------------------------

class Trainer:
    """Drives the full loop for one configuration on one graph."""

    def __init__(
        self,
        config: TrainConfig,
        graph: RoadGraph,
        specs: Sequence[AgentSpec] | None = None,
        completer: ChatCompleter | None = None,
    ):
        self.config = config
        self.graph = graph
        self.specs = tuple(specs) if specs is not None else generate_agent_specs(
            graph, config.n_agents, config.seed)
        if len(self.specs) != config.n_agents:
            raise TrainingError(f"{len(self.specs)} specs for n_agents={config.n_agents}")
        self.env = RouteEnv(
            graph, self.specs,
            step_limit=config.steps_per_episode,
            time_penalty=config.time_penalty,
            shaping_coef=config.shaping_coef,
            arrival_bonus=config.arrival_bonus,
            congestion=config.congestion,
        )
        self.learners = [self._init_learner(i) for i in range(config.n_agents)]
        self.demo_rng = shared_rng(config.seed, 2)
        self.completer = completer
        if self.completer is None and config.expert_provider == "llm" and config.mock_dir:
            self.completer = MockChatCompleter(config.mock_dir)
        self.prompt_state = PromptState(graph=graph, specs=self.specs)
        self.epoch = 0
        self.metrics: list[EpochMetrics] = []
        self._validity = float("nan")

    def _init_learner(self, agent_id: int) -> AgentLearner:
        rng = agent_rng(self.config.seed, 0, agent_id)
        obs_dim, n_actions = self.env.obs_dim, self.env.n_actions
        policy = nets.init_mlp(rng, obs_dim, n_actions)
        value_a = nets.init_mlp(rng, obs_dim, 1)
        value_e = nets.init_mlp(rng, obs_dim, 1)
        return AgentLearner(
            policy=policy, value_a=value_a, value_e=value_e,
            adam_policy=nets.init_adam(policy),
            adam_value_a=nets.init_adam(value_a),
            adam_value_e=nets.init_adam(value_e),
            rng=agent_rng(self.config.seed, 1, agent_id),
        )

    # -- demo generation ---------------------------------------------------

    def _policy_logp(self, agent_id: int, obs_vec: np.ndarray, mask: np.ndarray, action: int) -> float:
        out = nets.policy_forward(self.learners[agent_id].policy, obs_vec, mask)
        return float(out.log_probs[action])

    def _propose_routes(self) -> tuple[dg.ExecutableSet, float, int]:
        """(executable set, validity rate, token count) from the provider."""
        provider = self.config.expert_provider
        if provider == "llm":
            try:
                return self._propose_from_text()
            except LlmError:
                if self.config.provider_fallback in ("oracle", "logit"):
                    provider = self.config.provider_fallback
                else:
                    raise
        if provider == "oracle":
            return dg.oracle_expert(self.graph, self.specs), 100.0, 0
        if provider == "logit":
            routes = dg.logit_expert(self.graph, self.specs, self.config.logit_temperature, self.demo_rng)
            return routes, 100.0, 0
        raise TrainingError(f"no demonstrations available from provider {provider!r}")

    def _propose_from_text(self) -> tuple[dg.ExecutableSet, float, int]:
        if self.completer is None:
            from .llm import EndpointConfig, HttpChatCompleter
            self.completer = HttpChatCompleter(EndpointConfig.from_env())
        reply = self.completer.complete(build_prompt(self.prompt_state))
        parsed = dg.parse_instructions(reply.text, len(self.specs), self.graph)
        executable, valid = dg.prepare_executable(
            self.graph, self.specs, parsed, fallback=self.config.invalid_route_fallback)
        return executable, dg.validity_rate([valid[s.agent_id] for s in self.specs]), reply.token_count

    def _regenerate_demos(self, k: int, tau_a: list[Trajectory]) -> None:
        executable, validity, _tokens = self._propose_routes()
        tau_e = dg.execute_demos(
            self.graph, self.specs, executable,
            policy_logp=self._policy_logp,
            seed=self.config.seed,
            step_limit=self.config.steps_per_episode,
            env_kwargs={
                "time_penalty": self.config.time_penalty,
                "shaping_coef": self.config.shaping_coef,
                "arrival_bonus": self.config.arrival_bonus,
                "congestion": self.config.congestion,
            },
        )
        self._validity = validity
        kind = self.config.mode_kind
        for i, learner in enumerate(self.learners):
            learner.last_expert = tau_e[i]
            learner.last_dtw = dtw_distance(
                traj_to_feature_seq(tau_a[i], self.graph),
                traj_to_feature_seq(tau_e[i], self.graph),
            )
            if kind in ("dynamic", "logit-ppo"):
                learner.alpha = max(L.alpha_weight(k, self.config.epochs, learner.last_dtw), ALPHA_FLOOR)
            elif kind == "fixed":
                learner.alpha = float(self.config.fixed_alpha)
            else:
                learner.alpha = 1.0
        if self.config.expert_provider == "llm":
            self.prompt_state = refine_prompt(
                self.prompt_state,
                {i: (tau_a[i].junction_path, tau_a[i].episode_reward) for i in range(len(tau_a))},
                {i: (tau_e[i].junction_path, tau_e[i].episode_reward) for i in tau_e},
                {i: self.learners[i].last_dtw for i in range(len(self.learners))},
            )

    # -- epoch loop ----------------------------------------------------------

    def run_epoch(self) -> EpochMetrics:
        start = time.perf_counter()
        k = self.epoch + 1
        cfg = self.config
        tau_a = rollout(
            self.env,
            [ln.policy for ln in self.learners],
            [ln.rng for ln in self.learners],
            seed=cfg.seed,
        )
        if cfg.expert_provider != "none" and (k == 1 or k % cfg.demo_interval == 0):
            self._regenerate_demos(k, tau_a)
        loss_policy, loss_va, loss_ve = [], [], []
        for i, learner in enumerate(self.learners):
            learner.last_agent = tau_a[i]
            stats = update_agent(learner, tau_a[i], learner.last_expert, k, cfg.epochs, cfg)
            loss_policy.append(stats["loss_policy"])
            loss_va.append(stats["loss_value_a"])
            loss_ve.append(stats["loss_value_e"])
        metrics = EpochMetrics(
            epoch=k,
            reward_a=tuple(t.episode_reward for t in tau_a),
            reward_e=tuple(
                ln.last_expert.episode_reward if ln.last_expert is not None else float("nan")
                for ln in self.learners
            ),
            alpha=tuple(ln.alpha for ln in self.learners),
            dtw=tuple(ln.last_dtw for ln in self.learners),
            validity_rate=self._validity,
            loss_policy=_nanmean(loss_policy),
            loss_value_a=_nanmean(loss_va),
            loss_value_e=_nanmean(loss_ve),
            seconds=0.0,
        )
        metrics.seconds = time.perf_counter() - start
        self.epoch = k
        self.metrics.append(metrics)
        return metrics

    def train(
        self,
        out_dir: str | Path | None = None,
        on_epoch: Callable[[EpochMetrics], None] | None = None,
    ) -> TrainResult:
        """Run all configured epochs; stream metrics/checkpoints to disk.

        With ``out_dir`` set, appends one row per epoch to ``metrics.csv``
        (deterministic columns) and ``timing.csv`` (wall clock), and writes
        checkpoints at the configured cadence plus at the end.  On failure
        the rows written so far are preserved.
        """
        out = Path(out_dir) if out_dir is not None else None
        metrics_file = timing_file = None
        metrics_writer = timing_writer = None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            metrics_file = open(out / "metrics.csv", "w", newline="")
            metrics_writer = csv.writer(metrics_file)
            metrics_writer.writerow(METRICS_COLUMNS)
            timing_file = open(out / "timing.csv", "w", newline="")
            timing_writer = csv.writer(timing_file)
            timing_writer.writerow(("epoch", "seconds"))
        try:
            for _ in range(self.config.epochs):
                row = self.run_epoch()
                if metrics_writer is not None:
                    metrics_writer.writerow(row.csv_row())
                    metrics_file.flush()
                    timing_writer.writerow((row.epoch, f"{row.seconds:.6f}"))
                    timing_file.flush()
                if on_epoch is not None:
                    on_epoch(row)
                if (
                    out is not None
                    and self.config.checkpoint_every
                    and row.epoch % self.config.checkpoint_every == 0
                ):
                    save_checkpoint(out / "checkpoints", self.learners, self.config, row.epoch)
            if out is not None:
                save_checkpoint(out / "checkpoints", self.learners, self.config, self.epoch)
        finally:
            if metrics_file is not None:
                metrics_file.close()
                timing_file.close()
        return TrainResult(learners=self.learners, metrics=self.metrics, specs=self.specs)

    def evaluate(self, episodes: int | None = None) -> EvalResult:
        return evaluate([ln.policy for ln in self.learners], self.env,
                        episodes if episodes is not None else self.config.eval_episodes)


def evaluate(policies: Sequence[nets.MlpParams], env: RouteEnv, episodes: int) -> EvalResult:
    """Greedy (argmax) evaluation; no learning, no sampling."""
    episode_rewards = np.zeros(episodes)
    per_agent = np.zeros(env.n_agents)
    for ep in range(episodes):
        trajectories = rollout(env, policies, None, seed=ep, greedy=True)
        rewards = np.array([t.episode_reward for t in trajectories])
        episode_rewards[ep] = rewards.mean()
        per_agent += rewards / episodes
    return EvalResult(episode_rewards=episode_rewards, per_agent=per_agent)


# -- checkpoints ------------------------------------------------------------------------

def save_checkpoint(directory: str | Path, learners: Sequence[AgentLearner],
                    config: TrainConfig, epoch: int) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, learner in enumerate(learners):
        nets.save_params(directory / f"agent{i:03d}_policy.npz", learner.policy)
        nets.save_params(directory / f"agent{i:03d}_value_a.npz", learner.value_a)
        nets.save_params(directory / f"agent{i:03d}_value_e.npz", learner.value_e)
    manifest = {
        "version": nets.CHECKPOINT_VERSION,
        "epoch": epoch,
        "config_hash": config_hash(config),
        "n_agents": len(learners),
    }
    (directory / "checkpoint_manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory


def load_checkpoint(directory: str | Path) -> tuple[list[dict[str, nets.MlpParams]], dict]:
    directory = Path(directory)
    manifest = json.loads((directory / "checkpoint_manifest.json").read_text())
    agents = []
    for i in range(manifest["n_agents"]):
        agents.append({
            "policy": nets.load_params(directory / f"agent{i:03d}_policy.npz"),
            "value_a": nets.load_params(directory / f"agent{i:03d}_value_a.npz"),
            "value_e": nets.load_params(directory / f"agent{i:03d}_value_e.npz"),
        })
    return agents, manifest

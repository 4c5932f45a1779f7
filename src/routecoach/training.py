"""Decentralized training loop: per-agent policies guided by expert demos.

Every epoch runs one episode of policy rollouts.  On a fixed interval
(``demo_interval``, plus the very first epoch) the expert provider is
asked for fresh routes, the demos are executed, and each
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

import contextlib
import csv
import hashlib
import json
import time
import zipfile
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields, replace
from math import isfinite, isnan
from pathlib import Path
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from . import demos as dg
from . import losses as L
from . import nets
from .env import (ARRIVAL_BONUS, CONGESTION, SHAPING_COEF, STEP_LIMIT, TIME_PENALTY, UNREACHABLE_SCORE, AgentSpec,
                  RouteEnv)
from .graph import INF, RoadGraph
from .llm import TEMPERATURE, ChatCompleter, EndpointConfig, HttpChatCompleter, LlmError, MockChatCompleter
from .prompts import PromptState, build_prompt, refine_prompt
from .trajectory import Trajectory, dtw_distance, run_episode, traj_to_feature_seq

ALPHA_FLOOR = 1e-12  # keeps the mixing weight in (0, 1] when exp() underflows

METRICS_COLUMNS = (
    "epoch", "mean_reward_a", "mean_reward_e", "alpha_mean", "dtw_mean",
    "validity_rate", "loss_policy", "loss_value_a", "loss_value_e",
)

PROVIDERS = ("llm", "oracle", "logit", "none")
# each agent holds three networks (54,534 doubles on a grid: 10 inputs, 4 actions) and their
# two Adam moments, 1.31 MB, so this many agents hold 5.4 GB before any rollout
MAX_AGENTS = 4096
# greedy evaluation plays one episode and repeats its reward, so more copies add nothing
MAX_EVAL_EPISODES = 10_000
# the values each annotation of a TrainConfig field admits; a bool is an int,
# so it is admitted only where the annotation names bool
FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}
LOSSES = ("loss_policy", "loss_value_a", "loss_value_e")  # per-agent stats of an update
ADAM_STEP = (1 - nets.ADAM_BETA1) / (1 - nets.ADAM_BETA2) ** 0.5  # Adam's largest step, in learning rates: 3.16


class TrainingError(RuntimeError):
    pass


def _check_type(name: str, value, annotation: str) -> None:
    """Raise ``ValueError`` unless ``value`` is of a type that ``annotation`` admits (see ``FIELD_TYPES``)."""
    types, what = FIELD_TYPES[annotation]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def read_json_object(path: Path, what: str, required: Sequence[str] = (),
                     error: type[Exception] = TrainingError) -> dict:
    """The JSON object in the file ``path``; ``error``, naming it ``what``, if the file is missing,
    is not valid JSON, does not hold an object, or lacks a key of ``required``."""
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise error(f"{what} {path} lacks {', '.join(missing)}")
    return doc


def _nanmean(values) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


@dataclass
class TrainConfig:
    n_agents: int = 10
    epochs: int = 500
    steps_per_episode: int = STEP_LIMIT
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
    time_penalty: float = TIME_PENALTY
    shaping_coef: float = SHAPING_COEF
    arrival_bonus: float = ARRIVAL_BONUS
    congestion: bool = CONGESTION
    checkpoint_every: int = 0
    eval_episodes: int = 20
    mock_dir: str | None = None
    llm_temperature: float = TEMPERATURE

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            _check_type(f.name, value, f.type)
            if f.type == "float" and not abs(value) <= float_info.max:  # NaN, +-inf, or an int no float holds
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("n_agents", "epochs", "steps_per_episode", "update_epochs", "demo_interval", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, bound in (("n_agents", MAX_AGENTS), ("eval_episodes", MAX_EVAL_EPISODES)):
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be <= {bound}, got {getattr(self, name)}")
        for name in ("checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("learning_rate", "logit_temperature"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        # Adam steps a parameter at most 3.2 * lr (ADAM_STEP; Kingma & Ba, "Adam", ICLR 2015, sec. 2.1), so after
        # epochs * update_epochs steps a final weight, zero at the start, is within w = 3.2 * lr * steps, a hidden one
        # within sqrt(6) + w, and a value error within 258 * w (an output of 128 tanh units and a bias, and as much
        # in its bootstrapped return).  A gradient is at most twice the error times a final weight, 128 hidden weights
        # and an input (within 10: UNREACHABLE_SCORE), and Adam squares it.  env_from_config bounds the rewards alone
        width, steps = nets.HIDDEN[-1], self.epochs * self.update_epochs
        w = ADAM_STEP * self.learning_rate * min(steps, float_info.max)  # a larger int does not convert to a float
        grad = 4 * (width + 1) * w * max(1.0, width * (6 ** 0.5 + w) * w * -UNREACHABLE_SCORE)
        if not isfinite(grad * grad):
            raise ValueError(f"learning_rate {self.learning_rate:g} over epochs * update_epochs = {steps} Adam steps "
                             f"allows value gradients of {grad:g}, too large to square")
        if self.llm_temperature < 0:
            raise ValueError(f"llm_temperature must be >= 0, got {self.llm_temperature}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if not 0.0 < self.entropy_beta <= 1.0:
            raise ValueError(f"entropy_beta must be in (0, 1], got {self.entropy_beta}")
        if self.expert_provider not in PROVIDERS:
            raise ValueError(f"unknown expert provider {self.expert_provider!r}")
        if self.provider_fallback not in ("oracle", "logit", "none"):
            raise ValueError(f"unknown provider_fallback {self.provider_fallback!r}")
        if self.invalid_route_fallback not in dg.INVALID_ROUTE_FALLBACKS:
            raise ValueError(f"unknown invalid_route_fallback {self.invalid_route_fallback!r}")
        self.mode_kind  # validates the mode string
        if self.mode == "ippo":
            self.expert_provider = "none"
        elif self.expert_provider == "none":
            raise ValueError("expert_provider 'none' requires mode 'ippo'")
        if self.mode == "logit-ppo":
            self.expert_provider = "logit"

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


# -- config to runtime ----------------------------------------------------------------

def env_from_config(graph: RoadGraph, specs: Sequence[AgentSpec], config: TrainConfig) -> RouteEnv:
    """The run's environment; ``EnvError`` for a task the graph cannot hold, and ``TrainingError`` for a task count
    other than ``n_agents``, for reward settings whose worst-case return the value loss cannot square, or for a
    ``logit_temperature`` that the graph's route costs divide past the largest float."""
    if len(specs) != config.n_agents:
        raise TrainingError(f"{len(specs)} tasks for n_agents={config.n_agents}")
    # a step costs at most |time_penalty| per agent on its edge and gains at most the summed edge length
    steps, traffic = config.steps_per_episode, len(specs) if config.congestion else 1
    bound = steps * (abs(config.time_penalty) * traffic + abs(config.shaping_coef) * graph.total_length)
    bound += abs(config.arrival_bonus)
    if not isfinite(steps * bound * bound):
        raise TrainingError(f"time_penalty {config.time_penalty:g}, shaping_coef {config.shaping_coef:g} and "
                            f"arrival_bonus {config.arrival_bonus:g} allow returns of {bound:g}, too large to square")
    # the logit expert divides route costs by the temperature, and a loopless route costs at most the summed length
    if not isfinite(graph.total_length / config.logit_temperature):
        raise TrainingError(f"logit_temperature {config.logit_temperature!r} divides route costs of up to "
                            f"{graph.total_length:g} past the largest float")
    return RouteEnv(graph, specs, step_limit=config.steps_per_episode, time_penalty=config.time_penalty,
                    shaping_coef=config.shaping_coef, arrival_bonus=config.arrival_bonus,
                    congestion=config.congestion)


def completer_for(config: TrainConfig) -> ChatCompleter | None:
    """The chat completer of the "llm" provider; None for the others.

    Scripted replies from ``mock_dir`` when it is set, else the HTTP
    endpoint configured in the environment, sampled at
    ``llm_temperature``.  Raises ``LlmError`` when neither is usable.
    """
    if config.expert_provider != "llm":
        return None
    if config.mock_dir:
        return MockChatCompleter(config.mock_dir)
    return HttpChatCompleter(replace(EndpointConfig.from_env(), temperature=config.llm_temperature))


@dataclass
class AgentLearner:
    policy: nets.MlpParams
    value_a: nets.MlpParams
    value_e: nets.MlpParams
    # None once the run's last update has stepped them: nothing reads the moments after it
    adam_policy: nets.AdamState | None
    adam_value_a: nets.AdamState | None
    adam_value_e: nets.AdamState | None
    rng: np.random.Generator
    alpha: float = 1.0
    last_agent: Trajectory | None = None
    last_expert: Trajectory | None = None
    last_dtw: float = float("nan")


NETWORKS = ("policy", "value_a", "value_e")  # an AgentLearner's networks, one .npz each


def network_widths(env: RouteEnv) -> dict[str, int]:
    """The output width in ``env`` of each network of ``NETWORKS``, by name: a logit per action slot, or one value."""
    return {name: env.n_actions if name == "policy" else 1 for name in NETWORKS}


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
    per_agent: np.ndarray        # reward per agent

    @property
    def mean(self) -> float:
        return float(self.episode_rewards.mean())


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

CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # Generator.choice's tolerance on sum(p)


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice(m, p=row)`` draws from, for each row of ``probs`` (..., m).

    That is the row's ``cumsum`` divided by its last entry.  Rows ``choice``
    rejects (not finite, negative, or not summing to 1 within its
    tolerance) are NaN, so that drawing from them raises.
    """
    ok = (np.isfinite(probs).all(axis=-1) & (probs >= 0).all(axis=-1)
          & (np.abs(probs.sum(axis=-1) - 1.0) <= CHOICE_ATOL))
    cdf = np.full(probs.shape, np.nan)
    rows = probs[ok].cumsum(axis=-1)
    cdf[ok] = rows / rows[:, -1:]
    return cdf


def draw(cdf_row: Sequence[float], rng: np.random.Generator) -> int:
    """The action ``rng.choice(m, p=row)`` picks, given the row's cdf (see ``choice_cdf``).

    One ``random()`` from ``rng``, and the action is the number of cdf
    entries at or below it (``bisect_right``, as ``searchsorted`` right).  A
    NaN row raises ``ValueError`` before anything is drawn.
    """
    if isnan(cdf_row[-1]):
        raise ValueError("probabilities are not finite, non-negative and summing to 1")
    return bisect_right(cdf_row, rng.random())


def policy_table(env: RouteEnv, policies: Sequence[nets.MlpParams]) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs), each (A, n, m): agent ``a``'s action distribution at every junction of ``env``.

    An observation depends only on the junction, so one forward per agent over
    its observation table in ``env`` gives every distribution an episode can
    ask for.  The table holds for as long as the policies' parameters do.  One policy per
    agent: another count raises ``ValueError``.
    """
    if len(policies) != env.n_agents:
        raise ValueError(f"{len(policies)} policies for an environment of {env.n_agents} agents")
    obs = [env.agent_tables(i)[0] for i in range(env.n_agents)]
    return nets.policy_table_forward(policies, obs, env.mask_table)


def rollout(
    env: RouteEnv,
    table: tuple[np.ndarray, np.ndarray],
    rngs: Sequence[np.random.Generator] | None,
    *,
    greedy: bool = False,
) -> list[Trajectory]:
    """One episode of decentralized execution from a ``policy_table``; one trajectory per agent.

    Each agent samples from its own masked policy, with its own rng, given
    only its own observation.  ``greedy`` switches to argmax selection
    (evaluation).  The table is turned into Python lists (cdf rows to sample
    from, or argmax actions) that each step of the agent's walk looks up.
    Each trajectory's ``logps`` are its actions' entries of the table.  The
    ``Trainer`` computes one table per parameter version, which its greedy
    evaluation and its next epoch's rollout share.
    """
    if not greedy and rngs is None:
        raise ValueError("sampling rollouts need per-agent rngs")
    log_probs, probs = table
    if greedy:
        best = probs.argmax(axis=2).tolist()

        def choose(i: int, j: int) -> int:
            return best[i][j]
    else:
        cdf = choice_cdf(probs).tolist()

        def choose(i: int, j: int) -> int:
            return draw(cdf[i][j], rngs[i])

    trajectories = run_episode(env, choose)
    for i, traj in enumerate(trajectories):
        traj.logps = log_probs[i, traj.junction_path[:-1], traj.actions]
    return trajectories


# -- the update ------------------------------------------------------------------------

def update_agent(
    learners: Sequence[AgentLearner],
    tau_a: Sequence[Trajectory],
    tau_e: Sequence[Trajectory | None],
    k: int,
    config: TrainConfig,
) -> list[dict[str, float]]:
    """One full update round for every agent, each from its own data only.

    Agent ``i`` learns from ``tau_a[i]`` and, unless the mode is IPPO or there is no
    demonstration, the expert's ``tau_e[i]``; an empty ``tau_a[i]`` is skipped (NaN
    losses).  Each batch bootstraps returns and advantages, steps its own value head
    on its squared error, and adds its clipped surrogate, weighted ``alpha`` or
    ``1 - alpha``, to the agent's policy gradient; the policy steps on the negated
    mixed objective plus the entropy bonus.  Each of ``update_epochs`` passes steps
    the value heads, then the policies, in place.  The batches are segments of one
    set of rows (see ``nets``), so each agent gets the bytes of an update of it alone.
    A learner whose run has released its Adam state raises ``TrainingError`` before any step.
    """
    eps, beta, lr = config.clip_epsilon, config.entropy_beta, config.learning_rate
    stats = [dict.fromkeys(LOSSES, float("nan")) for _ in learners]
    # per segment: agent, batch (0 own, 1 expert), trajectory, policy, value head and its
    # Adam state, policy-loss weight, entropy upstream; ``agents`` maps an agent to its segments
    segs, agents = [], {}
    for i, (ln, own, expert) in enumerate(zip(learners, tau_a, tau_e)):
        if any(adam is None for adam in (ln.adam_policy, ln.adam_value_a, ln.adam_value_e)):
            raise TrainingError(f"agent {own.agent_id}: no optimizer state; its run's last update released it")
        if len(own) == 0:
            continue
        agents[i] = [len(segs)]
        segs.append((i, 0, own, ln.policy, ln.value_a, ln.adam_value_a, ln.alpha, beta / len(own)))
        if config.mode_kind != "ippo" and expert is not None and len(expert) > 0:
            agents[i].append(len(segs))
            segs.append((i, 1, expert, ln.policy, ln.value_e, ln.adam_value_e, 1.0 - ln.alpha, 0.0))
    if not segs:
        return stats
    owners, batches, taus, policies, values, adams, weights, dents = zip(*segs)
    lengths = [len(tau) for tau in taus]
    rows = [slice(end - m, end) for end, m in zip(np.cumsum(lengths).tolist(), lengths)]
    x = np.concatenate([tau.obs_matrix() for tau in taus])
    masks = np.concatenate([tau.mask_matrix() for tau in taus])
    taken = (np.arange(len(x)), np.concatenate([tau.actions for tau in taus]))
    returns = np.concatenate([L.bootstrapped_returns(tau.rewards, config.gamma, 0.0 if tau.terminated else
                                                     float(nets.value_forward(value, tau.terminal_obs())))
                              for tau, value in zip(taus, values)])
    # per row: its batch's length, policy-loss weight and entropy upstream
    n, weight, dentropy = (np.repeat(np.array(c, dtype=float), lengths) for c in (lengths, weights, dents))
    policy_grads = [policies[0].like(np.empty_like(policies[0].data)) for _ in range(2)]
    value_grads = values[0].like(np.empty_like(values[0].data))

    for update in range(config.update_epochs):
        value_tape = nets.mlp_forward_tape(values, x, rows)
        v = value_tape.out[:, 0]
        if update == 0:
            adv = L.advantages(returns, v)
            for own, *_ in agents.values():
                # standardizing keeps the agent's own PPO step well-scaled; the expert batch keeps
                # its raw advantages, since zero-centering a uniformly good batch would force half
                # of a demonstrated route to look disadvantageous
                adv[rows[own]] = L.standardize(adv[rows[own]])
        errors = L.squared_errors(v, returns)
        dv = (2.0 * (v - returns) / n).reshape(-1, 1)
        for s, (i, batch, value, adam) in enumerate(zip(owners, batches, values, adams)):
            # a plain ufunc reduction over a segment: the bits of ``np.mean``, without its wrapper
            loss = float(np.add.reduce(errors[rows[s]])) / lengths[s]
            if not np.isfinite(loss):
                raise TrainingError(f"agent {tau_a[i].agent_id}: non-finite "
                                    f"{('own', 'expert')[batch]} value loss at epoch {k}")
            stats[i][("loss_value_a", "loss_value_e")[batch]] = loss
            nets.adam_step(value, nets.mlp_grads(value, value_tape, dv, rows[s], value_grads), adam, lr)
        # each network's steps leave the pass's other arrays untouched, so the value heads go
        # first and their rows-by-128 arrays are freed before the policies' are made
        del value_tape

        policy_tape = nets.policy_forward_tape(policies, x, masks, rows)
        logp_new = policy_tape.log_probs[taken]
        if update == 0:
            # the expert data was not produced by the current policy, so the "old" policy
            # for its ratio is this one, on the parameters entering the round
            logp_old = logp_new.copy()
            for own, *_ in agents.values():
                logp_old[rows[own]] = taus[own].logps
        terms, dterms = L.surrogate_terms(logp_new, logp_old, adv, eps)
        dlogp = np.zeros_like(policy_tape.log_probs)
        dlogp[taken] = weight * (dterms / n)
        upstream = nets.policy_upstream(policy_tape, dlogp, dentropy)
        for i, own in agents.items():
            objs = [float(np.add.reduce(terms[rows[s]])) / lengths[s] for s in own]
            entropy = float(np.add.reduce(policy_tape.entropy[rows[own[0]]])) / lengths[own[0]]
            mixed = L.mixed_policy_objective(objs[0], objs[1] if len(objs) > 1 else 0.0, learners[i].alpha)
            total = L.total_policy_objective(mixed, entropy, beta)
            if not np.isfinite(total):
                raise TrainingError(f"agent {tau_a[i].agent_id}: non-finite policy objective at epoch {k}")
            g = [nets.mlp_grads(policies[s], policy_tape.mlp, upstream, rows[s], b).data
                 for s, b in zip(own, policy_grads)]
            if len(g) > 1:
                np.add(g[0], g[1], out=g[0])
            np.negative(g[0], out=g[0])
            nets.adam_step(learners[i].policy, policy_grads[0], learners[i].adam_policy, lr)
            stats[i]["loss_policy"] = -total
        del policy_tape, upstream
    return stats


# -- the trainer -------------------------------------------------------------------------

class Trainer:
    """Drives the full loop for one configuration on one graph."""

    def __init__(
        self,
        config: TrainConfig,
        graph: RoadGraph,
        specs: Sequence[AgentSpec],
        completer: ChatCompleter | None = None,
    ):
        self.config = config
        self.env = env_from_config(graph, specs, config)
        self.learners = [self._init_learner(i) for i in range(config.n_agents)]
        self.demo_rng = shared_rng(config.seed, 2)
        self.completer = completer if completer is not None else completer_for(config)
        self.prompt_state = PromptState(graph=graph, specs=self.env.specs)
        self.metrics: list[EpochMetrics] = []  # a row per epoch run: their count is the run's progress
        self._validity = float("nan")
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    def _policy_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``policy_table`` of the learners' current parameters, computed once per version.

        Only ``run_epoch`` changes the parameters, and it drops the table before it does.
        """
        if self._table is None:
            self._table = policy_table(self.env, [ln.policy for ln in self.learners])
        return self._table

    def _init_learner(self, agent_id: int) -> AgentLearner:
        rng = agent_rng(self.config.seed, 0, agent_id)
        networks = {name: nets.init_mlp(rng, self.env.obs_dim, width)  # drawn in NETWORKS order
                    for name, width in network_widths(self.env).items()}
        return AgentLearner(**networks, **{f"adam_{name}": nets.init_adam(p) for name, p in networks.items()},
                            rng=agent_rng(self.config.seed, 1, agent_id))

    # -- demo generation ---------------------------------------------------

    def _propose_routes(self) -> tuple[dg.ExecutableSet, float, int]:
        """(executable set, validity rate, token count) from the provider."""
        provider, tokens = self.config.expert_provider, 0
        graph, specs = self.env.graph, self.env.specs
        if provider == "llm":
            try:
                reply = self.completer.complete(build_prompt(self.prompt_state))
                parsed = dg.parse_instructions(reply.text, len(specs), graph)
                executable = dg.prepare_executable(graph, specs, parsed, self.config.invalid_route_fallback)
                tokens = reply.token_count
            except LlmError:
                if self.config.provider_fallback == "none":
                    raise
                provider = self.config.provider_fallback
        if provider == "oracle":
            executable = dg.oracle_expert(graph, specs)
        elif provider == "logit":
            executable = dg.logit_expert(graph, specs, self.config.logit_temperature, self.demo_rng)
        elif provider != "llm":
            raise TrainingError(f"no demonstrations available from provider {provider!r}")
        return executable, dg.validity_rate(executable.valid()), tokens

    def demonstrate(
        self, tau_a: Sequence[Trajectory],
    ) -> tuple[dg.ExecutableSet, float, int, dict[int, Trajectory], list[float]]:
        """One demonstration round against the agents' trajectories ``tau_a``.

        Proposes routes, replays them in ``self.env``, and measures each
        agent's DTW distance to its demonstration.  Returns (executable set,
        validity rate, token count, expert trajectories, DTW per agent).
        """
        executable, validity, tokens = self._propose_routes()
        tau_e = dg.replay(self.env, executable)
        dtw = [dtw_distance(traj_to_feature_seq(tau_a[i], self.env.graph),
                            traj_to_feature_seq(tau_e[i], self.env.graph))
               for i in range(len(self.learners))]
        return executable, validity, tokens, tau_e, dtw

    def refine(self, tau_a: Sequence[Trajectory], tau_e: dict[int, Trajectory],
               dtw: Sequence[float]) -> None:
        """Append a round's feedback to the prompt; only the "llm" provider has one."""
        if self.config.expert_provider != "llm":
            return
        self.prompt_state = refine_prompt(
            self.prompt_state,
            {i: (t.junction_path.tolist(), t.episode_reward) for i, t in enumerate(tau_a)},
            {i: (t.junction_path.tolist(), t.episode_reward) for i, t in tau_e.items()},
            dict(enumerate(dtw)),
        )

    def _regenerate_demos(self, k: int, tau_a: list[Trajectory]) -> None:
        _, self._validity, _, tau_e, dtw = self.demonstrate(tau_a)
        kind = self.config.mode_kind
        for i, learner in enumerate(self.learners):
            learner.last_expert = tau_e[i]
            learner.last_dtw = dtw[i]
            if kind == "fixed":
                learner.alpha = float(self.config.fixed_alpha)
            else:
                learner.alpha = max(L.alpha_weight(k, self.config.epochs, learner.last_dtw), ALPHA_FLOOR)
        self.refine(tau_a, tau_e, dtw)

    # -- epoch loop ----------------------------------------------------------

    def run_epoch(self) -> EpochMetrics:
        cfg = self.config
        k = len(self.metrics) + 1
        if k > cfg.epochs:
            raise TrainingError(f"the run's {cfg.epochs} epochs have all run")
        start = time.perf_counter()
        tau_a = rollout(self.env, self._policy_table(), [ln.rng for ln in self.learners])
        if cfg.expert_provider != "none" and (k == 1 or k % cfg.demo_interval == 0):
            self._regenerate_demos(k, tau_a)
        for learner, traj in zip(self.learners, tau_a):
            learner.last_agent = traj
        self._table = None  # cleared before the update, so that an update that raises leaves none stale
        stats = update_agent(self.learners, tau_a, [ln.last_expert for ln in self.learners], k, cfg)
        if k == cfg.epochs:  # the run's last update: its networks stay, its Adam moments go
            for ln in self.learners:
                ln.adam_policy = ln.adam_value_a = ln.adam_value_e = None
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
            **{key: _nanmean(st[key] for st in stats) for key in LOSSES},
            seconds=time.perf_counter() - start,
        )
        self.metrics.append(metrics)
        return metrics

    def train(
        self,
        out_dir: str | Path | None = None,
        on_epoch: Callable[[EpochMetrics], None] | None = None,
    ) -> Trainer:
        """Run all configured epochs, stream metrics/checkpoints to disk, and return the trainer.

        With ``out_dir`` set, appends one row per epoch to ``metrics.csv`` (deterministic columns) and
        ``timing.csv`` (wall clock), and writes checkpoints at the configured cadence and after the last
        epoch, each epoch at most once.  On failure the rows written so far are preserved.  A trainer that
        has run an epoch raises ``TrainingError`` before it opens a file.
        """
        if self.metrics:
            raise TrainingError(f"train() runs a fresh trainer; this one has run {len(self.metrics)} epochs")
        out = Path(out_dir) if out_dir is not None else None
        epochs, every = self.config.epochs, self.config.checkpoint_every
        with contextlib.ExitStack() as files:
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                metrics_file, timing_file = (files.enter_context(open(out / name, "w", newline=""))
                                             for name in ("metrics.csv", "timing.csv"))
                metrics_writer, timing_writer = csv.writer(metrics_file), csv.writer(timing_file)
                metrics_writer.writerow(METRICS_COLUMNS)
                timing_writer.writerow(("epoch", "seconds"))
            for _ in range(epochs):
                row = self.run_epoch()
                if out is not None:
                    metrics_writer.writerow(row.csv_row())
                    metrics_file.flush()
                    timing_writer.writerow((row.epoch, f"{row.seconds:.6f}"))
                    timing_file.flush()
                if on_epoch is not None:
                    on_epoch(row)
                if out is not None and (row.epoch == epochs or every and row.epoch % every == 0):
                    save_checkpoint(out / "checkpoints", self.learners, self.config, row.epoch)
        return self

    def evaluate(self, episodes: int | None = None) -> EvalResult:
        """``evaluate`` of the learners' policies, from the table the next epoch's rollout reuses."""
        return _evaluate_table(self.env, self._policy_table(),
                               episodes if episodes is not None else self.config.eval_episodes)


def evaluate(policies: Sequence[nets.MlpParams], env: RouteEnv, episodes: int) -> EvalResult:
    """Greedy (argmax) evaluation; no learning, no sampling.

    Argmax policies in the deterministic environment play the same episode
    every time, so it is run once and its reward is reported for each of
    the ``episodes`` requested.
    """
    return _evaluate_table(env, policy_table(env, policies), episodes)


def _evaluate_table(env: RouteEnv, table: tuple[np.ndarray, np.ndarray], episodes: int) -> EvalResult:
    rewards = np.array([t.episode_reward for t in rollout(env, table, None, greedy=True)])
    return EvalResult(episode_rewards=np.full(episodes, rewards.mean()), per_agent=rewards)


# -- checkpoints ------------------------------------------------------------------------

def network_file(directory: Path, agent: int, name: str) -> Path:
    """The checkpoint file of agent ``agent``'s network ``name``."""
    return directory / f"agent{agent:03d}_{name}.npz"


def save_checkpoint(directory: str | Path, learners: Sequence[AgentLearner],
                    config: TrainConfig, epoch: int) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, learner in enumerate(learners):
        for name in NETWORKS:
            nets.save_params(network_file(directory, i, name), getattr(learner, name))
    manifest = {
        "version": nets.CHECKPOINT_VERSION,
        "epoch": epoch,
        "config_hash": config_hash(config),
        "n_agents": len(learners),
    }
    (directory / "checkpoint_manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory


def load_checkpoint(directory: str | Path, config_hash: str,
                    env: RouteEnv) -> tuple[list[dict[str, nets.MlpParams]], dict]:
    """The networks ``save_checkpoint`` wrote under ``directory``, by name, per agent of ``env``; and its manifest.

    Raises ``TrainingError`` when there is no checkpoint, when its manifest
    is not a JSON object with a string ``config_hash`` and an integer
    ``n_agents`` equal to ``config_hash`` and ``env.n_agents``, or when a network
    file is missing, unreadable, or not of the layout ``env`` and ``network_widths`` give.
    """
    directory = Path(directory)
    path = directory / "checkpoint_manifest.json"
    if not path.exists():
        raise TrainingError(f"no checkpoint under {directory}")
    manifest = read_json_object(path, "checkpoint manifest", ("config_hash", "n_agents"))
    try:
        _check_type("config_hash", manifest["config_hash"], "str")
        _check_type("n_agents", manifest["n_agents"], "int")
    except ValueError as exc:
        raise TrainingError(f"checkpoint manifest {path}: {exc}") from exc
    if manifest["config_hash"] != config_hash:
        raise TrainingError("checkpoint was produced by a different configuration than the manifest")
    if manifest["n_agents"] != env.n_agents:
        raise TrainingError(f"checkpoint holds {manifest['n_agents']!r} agents "
                            f"but the run manifest lists {env.n_agents}")

    def read(agent: int, name: str, width: int) -> nets.MlpParams:
        path = network_file(directory, agent, name)
        try:
            return nets.load_params(path, env.obs_dim, width)
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise TrainingError(f"cannot read the checkpoint file {path}: {type(exc).__name__}: {exc}") from exc

    return [{name: read(i, name, width) for name, width in network_widths(env).items()}
            for i in range(env.n_agents)], manifest

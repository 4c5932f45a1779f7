"""The test-side reference: the one copy of each oracle the suite checks the library against.

- The episode and the training loop.  ``joint_episode`` steps every acting
  agent together and scores each move with the reward formula of the README,
  ``policy_episode`` runs one ``policy_forward`` per move and samples with
  ``Generator.choice``, and ``primitive_build`` trains from those episodes
  with one agent's update at a time, written with the single-network
  primitives.
- The observation.  ``edge_score`` scores one edge and
  ``reference_observation`` builds a departed agent's observation slot by
  slot from it; the environment's tables are checked against them.
- ``dtw_bruteforce`` enumerates every warping path, the oracle for
  ``dtw_distance``.
- ``returns_direct_sum`` sums the definition of the bootstrapped return term
  by term.
- ``max_gradient_error`` compares an analytic gradient with central finite
  differences (``numeric_grad``) at coordinates drawn by ``sample_coords``.

It uses none of the library's episode walk, move scoring, rollout, replay or
fused update (``test_reference_independence`` checks the names), so a fault
there shows up as a difference instead of being shared by the oracle.
"""
from collections import Counter

import numpy as np

from routecoach import demos as dg
from routecoach import losses as L
from routecoach import nets
from routecoach.env import PAD_ID, UNREACHABLE_SCORE, EnvError, RouteEnv
from routecoach.graph import INF
from routecoach.training import ALPHA_FLOOR, AgentLearner, agent_rng
from routecoach.trajectory import Trajectory, dtw_distance, traj_to_feature_seq


def joint_episode(env: RouteEnv, pick, sit_out=()) -> list[Trajectory]:
    """One episode of all agents moving together; ``pick(agent, junction)`` is each acting agent's move.

    A move over edge ``j -> next`` toward ``dest`` earns ``-time_penalty * (moves over that edge
    this time step when congestion is on, else 1) + shaping_coef * (d(j) - d(next)) +
    arrival_bonus * [next == dest]``, with ``d`` the distance to ``dest``.  Agents in
    ``sit_out`` start done and keep a single-point trajectory.
    """
    graph, specs = env.graph, env.specs
    dist = [graph.distances_to(spec.dest) for spec in specs]
    done, arrived = [i in sit_out for i in range(len(specs))], [False] * len(specs)
    paths, actions, rewards = [[spec.start] for spec in specs], [[] for _ in specs], [[] for _ in specs]
    for t in range(env.step_limit):
        if all(done):
            break
        moves = {}
        for i, spec in enumerate(specs):
            if t >= spec.depart_time and not done[i]:
                j = paths[i][-1]
                a, out = pick(i, j), graph.out_edges(j)
                if not 0 <= a < len(out):
                    raise EnvError(f"agent {i}: action {a} is masked at junction {j}")
                moves[i] = out[a]
                actions[i].append(a)
        traffic = Counter(moves.values())  # moves per edge
        for i, e in moves.items():
            arrived[i] = e.dst == specs[i].dest
            rewards[i].append(-env.time_penalty * (traffic[e] if env.congestion else 1)
                              + env.shaping_coef * (dist[i][e.src] - dist[i][e.dst])
                              + env.arrival_bonus * arrived[i])
            done[i] = arrived[i] or not graph.out_edges(e.dst)
            paths[i].append(e.dst)
    return [Trajectory(i, np.array(paths[i]), np.array(actions[i], dtype=np.int64),
                       np.array(rewards[i], dtype=float), *env.agent_tables(i),
                       arrived=arrived[i], terminated=done[i] and bool(actions[i])) for i in range(len(specs))]


def policy_episode(env: RouteEnv, policies, rngs=None) -> list[Trajectory]:
    """``joint_episode`` of the policies, with each move's log-probability in ``logps``.

    Each move is one ``policy_forward`` on the agent's observation, then
    ``Generator.choice`` with the agent's own rng, or argmax without ``rngs``.
    """
    logps = [[] for _ in policies]

    def pick(i, junction):
        obs, masks = env.agent_tables(i)
        out = nets.policy_forward(policies[i], obs[junction], masks[junction])
        a = int(np.argmax(out.probs)) if rngs is None else int(rngs[i].choice(out.probs.size, p=out.probs))
        logps[i].append(float(out.log_probs[a]))
        return a

    trajectories = joint_episode(env, pick)
    for tau, lp in zip(trajectories, logps):
        tau.logps = np.array(lp, dtype=float)
    return trajectories


def route_episode(env: RouteEnv, routes: dict) -> list[Trajectory]:
    """``joint_episode`` of each agent following its route {agent: junctions}; an empty route sits out."""
    plans = {i: iter(dg.compile_to_actions(env.graph, env.specs[i], r)) for i, r in routes.items() if r}
    return joint_episode(env, lambda i, junction: next(plans[i]), sit_out=set(routes) - set(plans))


def primitive_update(ln: AgentLearner, tau_a: Trajectory, tau_e: Trajectory | None, cfg) -> None:
    """One agent's update, in place, from its own batch and, unless IPPO or there is no
    demonstration, the expert's, with one network's forward and backward at a time."""
    batches = []
    for b, (tau, value, adam) in enumerate(((tau_a, ln.value_a, ln.adam_value_a),
                                            (tau_e, ln.value_e, ln.adam_value_e))):
        if b == 1 and (cfg.mode_kind == "ippo" or tau is None or len(tau) == 0):
            break
        obs, masks, taken = tau.obs_matrix(), tau.mask_matrix(), (np.arange(len(tau)), tau.actions)
        tail = 0.0 if tau.terminated else float(nets.value_forward(value, tau.terminal_obs()))
        returns = L.bootstrapped_returns(tau.rewards, cfg.gamma, tail)
        adv = L.advantages(returns, nets.value_forward(value, obs))
        if b == 0:  # the agent's own batch: standardized advantages, behaviour log-probs, entropy bonus
            batches.append((obs, masks, taken, tau.logps, L.standardize(adv), ln.alpha,
                            np.full(len(tau), cfg.entropy_beta / len(tau)), returns, value, adam))
        else:  # the expert's: raw advantages, the log-probs of the policy entering the update
            logp_old = nets.policy_forward_batch(ln.policy, obs, masks)[0][taken]
            batches.append((obs, masks, taken, logp_old, adv, 1.0 - ln.alpha, 0.0, returns, value, adam))
    for _ in range(cfg.update_epochs):
        grads = None
        for obs, masks, taken, logp_old, adv, weight, dentropy, *_ in batches:
            logp = nets.policy_forward_batch(ln.policy, obs, masks)[0]
            dlogp = np.zeros_like(logp)
            dlogp[taken] = weight * L.clipped_surrogate_grad(logp[taken], logp_old, adv, cfg.clip_epsilon)
            g = nets.policy_backward(ln.policy, obs, masks, dlogp, dentropy)
            grads = g if grads is None else nets.add(grads, g)
        nets.adam_step(ln.policy, nets.neg(grads), ln.adam_policy, cfg.learning_rate)
        for obs, *_, returns, value, adam in batches:
            dv = 2.0 * (nets.value_forward(value, obs) - returns) / len(obs)
            nets.adam_step(value, nets.value_backward(value, obs, dv), adam, cfg.learning_rate)


def primitive_build(cfg, graph, specs) -> list[AgentLearner]:
    """The training loop: policy episodes, oracle routes replayed at the first epoch and every
    ``demo_interval`` unless IPPO, and ``primitive_update`` for each agent that moved."""
    env = RouteEnv(graph, specs, step_limit=cfg.steps_per_episode, time_penalty=cfg.time_penalty,
                   shaping_coef=cfg.shaping_coef, arrival_bonus=cfg.arrival_bonus, congestion=cfg.congestion)
    learners = []
    for i in range(len(specs)):
        rng = agent_rng(cfg.seed, 0, i)
        networks = [nets.init_mlp(rng, env.obs_dim, out) for out in (env.n_actions, 1, 1)]
        learners.append(AgentLearner(*networks, *map(nets.init_adam, networks), agent_rng(cfg.seed, 1, i)))
    for k in range(1, cfg.epochs + 1):
        trajectories = policy_episode(env, [ln.policy for ln in learners], [ln.rng for ln in learners])
        if cfg.mode != "ippo" and (k == 1 or k % cfg.demo_interval == 0):
            demos = route_episode(env, dg.oracle_expert(graph, specs).routes)
            for ln, tau, demo in zip(learners, trajectories, demos):
                dtw = dtw_distance(traj_to_feature_seq(tau, graph), traj_to_feature_seq(demo, graph))
                ln.last_expert, ln.alpha = demo, max(L.alpha_weight(k, cfg.epochs, dtw), ALPHA_FLOOR)
        for ln, tau in zip(learners, trajectories):
            if len(tau) > 0:
                primitive_update(ln, tau, ln.last_expert, cfg)
    return learners


def learner_bytes(ln: AgentLearner) -> bytes:
    """Every network's and Adam moment's bytes, and the Adam step counts."""
    adams = (ln.adam_policy, ln.adam_value_a, ln.adam_value_e)
    arrays = [ln.policy, ln.value_a, ln.value_e] + [x for a in adams for x in (a.m, a.v)]
    return b"".join(x.data.tobytes() for x in arrays) + repr([a.t for a in adams]).encode()


def episode_record(trajectories) -> list[tuple]:
    """Each agent's id, path, actions, rewards, arrival, termination and log-probs, as Python values."""
    return [(t.agent_id, t.junction_path.tolist(), t.actions.tolist(), t.rewards.tolist(), t.arrived, t.terminated,
             None if t.logps is None else t.logps.tolist()) for t in trajectories]


def edge_score(graph, edge, dest) -> float:
    """Goodness of taking ``edge`` toward ``dest``: -(edge length + remaining distance from its end) / diameter.

    0 on a graph of diameter 0, and ``UNREACHABLE_SCORE`` when ``dest`` cannot be reached from the end.
    """
    remaining = graph.distances_to(dest)[edge.dst]
    if remaining == INF:
        return UNREACHABLE_SCORE
    diameter = graph.diameter
    if diameter <= 0:
        return 0.0
    return -(edge.length + remaining) / diameter


def reference_observation(graph, junction, dest):
    """A departed agent's observation and mask, built slot by slot with ``edge_score``."""
    m = graph.max_out_degree
    denom = max(graph.node_count - 1, 1)
    vector = np.zeros(2 + 2 * m)
    vector[0] = junction / denom
    vector[1] = dest / denom
    out = graph.out_edges(junction)
    for i in range(m):
        if i < len(out):
            vector[2 + 2 * i] = edge_score(graph, out[i], dest)
            vector[2 + 2 * i + 1] = out[i].dst / denom
        else:
            vector[2 + 2 * i] = 0.0
            vector[2 + 2 * i + 1] = PAD_ID
    mask = np.zeros(m, dtype=bool)
    mask[: len(out)] = True
    return vector, mask


def dtw_bruteforce(a, b):
    """Min summed cost over every monotone warping path, by bare recursion.

    No memoization: the recursion tree enumerates each warping path, which
    keeps this an independent oracle rather than the same dynamic program.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = [[float(np.hypot(*(a[i] - b[j]))) for j in range(len(b))] for i in range(len(a))]
    n, m = len(a), len(b)

    def rec(i, j):
        c = cost[i][j]
        if i == n - 1 and j == m - 1:
            return c
        best = float("inf")
        if i + 1 < n:
            best = min(best, rec(i + 1, j))
        if j + 1 < m:
            best = min(best, rec(i, j + 1))
        if i + 1 < n and j + 1 < m:
            best = min(best, rec(i + 1, j + 1))
        return c + best

    return rec(0, 0)


def returns_direct_sum(rewards, gamma, tail_value):
    """Literal double sum of the return definition, with the tail value discounted past the last reward."""
    T = len(rewards)
    out = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for k in range(T - t):
            acc += gamma**k * rewards[t + k]
        out[t] = acc + gamma ** (T - t) * tail_value
    return out


def sample_coords(rng, params, per_layer):
    """``per_layer`` random (kind, layer, index) coordinates of each weight array, then of each bias array."""
    return [(kind, layer, tuple(rng.integers(s) for s in arr.shape))
            for kind in ("weights", "biases") for layer, arr in enumerate(getattr(params, kind))
            for _ in range(per_layer)]


def numeric_grad(fn, params, coord, h=1e-5):
    """Central finite difference of the scalar ``fn(params)`` at one coordinate, which it restores."""
    kind, layer, index = coord
    arr = getattr(params, kind)[layer]
    orig = arr[index]
    arr[index] = orig + h
    up = fn(params)
    arr[index] = orig - h
    down = fn(params)
    arr[index] = orig
    return (up - down) / (2 * h)


def relative_error(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def max_gradient_error(rng, params, fn, analytic, per_layer):
    """The largest ``relative_error`` of ``analytic`` against ``numeric_grad`` of ``fn`` at ``sample_coords``."""
    return max(relative_error(getattr(analytic, kind)[layer][index], numeric_grad(fn, params, (kind, layer, index)))
               for kind, layer, index in sample_coords(rng, params, per_layer))

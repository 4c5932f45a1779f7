"""Property tests: the per-agent episode walks equal the joint ``env.step`` loop.

``trajectory.run_episode`` walks each agent's episode on its own and scores
every move afterwards.  These tests draw tasks, depart times, congestion on
or off, sit-outs and step limits (short enough to cut episodes and long
enough to let them finish), and check what ``rollout`` and ``replay`` record
against stepping all agents together with ``env.step``.  The policy table a
rollout walks from is checked row by row against single forwards, each
sampled step's ``draw`` against ``Generator.choice``, and one update of
every agent together against updating each agent alone.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from routecoach import AgentSpec, RouteEnv, TrainConfig, Trainer, grid_graph, hilly_graph, nets
from routecoach import demos as dg
from routecoach.env import EnvError
from routecoach.graph import INF, Edge, RoadGraph
from routecoach.training import agent_rng, choice_cdf, draw, policy_table, rollout, update_agent
from routecoach.trajectory import run_episode
from test_pinned_outputs import _hand_trajectory

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _with_dead_end(graph: RoadGraph) -> RoadGraph:
    """``graph`` plus a one-way spur from junction 4 into a new dead-end junction."""
    dead_end = graph.node_count
    edges = [e for j in graph.nodes for e in graph.out_edges(j)]
    return RoadGraph({**graph.nodes, dead_end: (3.0, 3.0)}, edges + [Edge(4, dead_end, 1.0)])


GRAPHS = (grid_graph(3), _with_dead_end(hilly_graph()))
TASKS = [[(a, b) for a in g.nodes for b in g.nodes if a != b and g.distances_to(b)[a] < INF] for g in GRAPHS]


@st.composite
def envs(draw) -> RouteEnv:
    g = draw(st.integers(0, len(GRAPHS) - 1))
    specs = tuple(AgentSpec(i, *draw(st.sampled_from(TASKS[g])), depart_time=draw(st.integers(0, 4)))
                  for i in range(draw(st.integers(1, 5))))
    return RouteEnv(GRAPHS[g], specs, step_limit=draw(st.integers(1, 20)), congestion=draw(st.booleans()))


def joint_episode(env: RouteEnv, pick, sit_out=()):
    """Every acting agent picks its action, then one ``env.step``: (paths, actions, rewards, final state)."""
    paths = [[spec.start] for spec in env.specs]
    actions, rewards = [[] for _ in env.specs], [[] for _ in env.specs]
    state = env.reset(sit_out)
    while not env.episode_done(state):
        joint = [None] * env.n_agents
        for i in env.acting(state).tolist():
            joint[i] = pick(i, int(state.positions[i]))
            actions[i].append(joint[i])
        state, step_rewards = env.step(state, joint)
        for i, a in enumerate(joint):
            if a is not None:
                paths[i].append(int(state.positions[i]))
                rewards[i].append(float(step_rewards[i]))
    return paths, actions, rewards, state


def assert_same_episode(trajectories, reference) -> None:
    paths, actions, rewards, state = reference
    assert [t.agent_id for t in trajectories] == list(range(len(paths)))
    for i, tau in enumerate(trajectories):
        assert tau.junction_path.tolist() == paths[i]
        assert tau.actions.tolist() == actions[i]
        assert tau.rewards.tolist() == rewards[i]
        assert (tau.arrived, tau.terminated) == (bool(state.arrived[i]), bool(state.done[i]) and bool(actions[i]))


def _policies(env: RouteEnv, seed: int) -> list[nets.MlpParams]:
    """Random networks with sharpened outputs, so that some agents wander and some head home."""
    rng = np.random.default_rng(seed)
    policies = [nets.init_mlp(agent_rng(seed, 0, i), env.obs_dim, env.n_actions) for i in range(env.n_agents)]
    for p in policies:
        p.weights[-1][...] = rng.normal(scale=3.0, size=p.weights[-1].shape)
    return policies


@PROPERTY
@given(env=envs(), seed=st.integers(0, 2**16), greedy=st.booleans())
def test_rollout_matches_joint_steps(env, seed, greedy):
    policies = _policies(env, seed)
    ours = None if greedy else [agent_rng(seed, 1, i) for i in range(env.n_agents)]
    trajectories = rollout(env, policy_table(env, policies), ours, greedy=greedy)

    rngs = [agent_rng(seed, 1, i) for i in range(env.n_agents)]
    logps = [[] for _ in env.specs]

    def pick(i, junction):
        obs_table, masks = env.agent_tables(i)
        out = nets.policy_forward(policies[i], obs_table[junction], masks[junction])
        a = int(np.argmax(out.probs)) if greedy else int(rngs[i].choice(out.probs.size, p=out.probs))
        logps[i].append(float(out.log_probs[a]))
        return a

    assert_same_episode(trajectories, joint_episode(env, pick))
    assert [t.logps.tolist() for t in trajectories] == logps
    if not greedy:
        assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in rngs]


@PROPERTY
@given(env=envs(), data=st.data())
def test_replay_matches_joint_steps(env, data):
    """Each agent replays one of its three shortest routes, or sits out with an empty route."""
    graph = env.graph
    routes = {}
    for spec in env.specs:
        candidates = [()] + [tuple(p) for _, p in graph.k_shortest_paths(spec.start, spec.dest, 3)]
        routes[spec.agent_id] = data.draw(st.sampled_from(candidates))
    trajectories = dg.replay(env, dg.ExecutableSet(routes))

    plans = {i: iter(dg.compile_to_actions(graph, env.specs[i], r)) for i, r in routes.items() if r}
    reference = joint_episode(env, lambda i, junction: next(plans[i]),
                              sit_out=[i for i, r in routes.items() if not r])
    assert_same_episode([trajectories[i] for i in range(env.n_agents)], reference)
    assert all(t.logps is None for t in trajectories.values())


@PROPERTY
@given(env=envs(), data=st.data())
def test_masked_action_raises_naming_agent_and_junction(env, data):
    """Agents take slot 0 until one returns a masked action; the walk raises what ``env.step`` raises."""
    agent = data.draw(st.integers(0, env.n_agents - 1))
    paths, actions, _, _ = joint_episode(env, lambda i, junction: 0)
    assume(actions[agent])
    step = data.draw(st.integers(0, len(actions[agent]) - 1))
    junction = paths[agent][step]
    bad = data.draw(st.sampled_from([-1, len(env.successors[junction])]))

    def choose(i, j):
        if i != agent:
            return 0
        calls.append(j)
        return bad if len(calls) == step + 1 else 0

    messages = []
    for play in (run_episode, joint_episode):
        calls = []
        with pytest.raises(EnvError) as info:
            play(env, choose)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"agent {agent}: action {bad} is masked at junction {junction}"


@settings(PROPERTY, max_examples=100)
@given(agents=st.integers(1, 4), rows=st.integers(1, 12), actions=st.integers(1, 4), in_dim=st.integers(1, 10),
       live=st.floats(0.0, 1.0), scale=st.sampled_from([0.0, 0.3, 3.0, 30.0]), seed=st.integers(0, 2**16))
def test_policy_table_rows_match_single_forwards(agents, rows, actions, in_dim, live, scale, seed):
    """Each row of the stacked table is ``policy_forward`` on that row alone, bit for bit; dead ends are -inf and 0."""
    rng = np.random.default_rng(seed)
    policies = [nets.init_mlp(rng, in_dim, actions) for _ in range(agents)]
    for p in policies:
        p.weights[-1][...] = rng.normal(scale=scale, size=p.weights[-1].shape)
        p.biases[-1][...] = rng.normal(scale=scale, size=p.biases[-1].shape)
    obs = rng.normal(scale=3.0, size=(agents, rows, in_dim))
    obs[rng.random(obs.shape) < 0.2] = -10.0  # the score of a missing slot
    masks = rng.random((rows, actions)) < live  # rows with no valid action are dead ends
    log_probs, probs = nets.policy_table_forward(nets.stack_params(policies), obs, masks)
    assert log_probs.shape == probs.shape == (agents, rows, actions)
    for a, policy in enumerate(policies):
        for j in range(rows):
            if not masks[j].any():
                assert np.all(log_probs[a, j] == -np.inf) and np.all(probs[a, j] == 0.0)
                continue
            out = nets.policy_forward(policy, obs[a, j], masks[j])
            assert log_probs[a, j].tobytes() == out.log_probs.tobytes()
            assert probs[a, j].tobytes() == out.probs.tobytes()


PLAIN = st.floats(1e-6, 1.0)


@st.composite
def probability_rows(pick, actions: int) -> np.ndarray:
    """``actions`` probabilities: exact zeros, tiny ones (so that the cdf reaches or nears 1
    before its last entry) and plain ones, at least one of them plain."""
    weights = pick(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-15), PLAIN),
                            min_size=actions, max_size=actions))
    weights[pick(st.integers(0, actions - 1))] = pick(PLAIN)
    return np.array(weights) / sum(weights)


@settings(PROPERTY, max_examples=100)
@given(actions=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_draws_match_generator_choice(actions, data, seed):
    """``draw`` on a ``choice_cdf`` row picks what ``Generator.choice`` picks and leaves the same state."""
    probs = np.array(data.draw(st.lists(probability_rows(actions), min_size=1, max_size=8)))
    cdf = choice_cdf(probs).tolist()
    seeds = np.random.default_rng(seed).integers(2**32, size=len(probs))
    ours, ref = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
    for _ in range(5):
        assert [draw(row, g) for row, g in zip(cdf, ours)] == [g.choice(actions, p=p) for g, p in zip(ref, probs)]
    assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in ref]


UPDATE_GRAPH = grid_graph(4)
UPDATE_SPECS = tuple(AgentSpec(i, i, 15 - i) for i in range(8))
# trajectory lengths that give a segment of 1 row, 2-9 rows (where a product's bits depend on
# its row count) and 10 or more; a demonstration is absent (None), empty (0) or present
LENGTHS = st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 64))
OWN = st.one_of(st.just(0), LENGTHS)
DEMO = st.one_of(st.none(), st.just(0), LENGTHS)


def _learners(config, seed):
    """Fresh learners with non-zero final layers and drawn mixing weights; the same for one seed."""
    trainer = Trainer(config, UPDATE_GRAPH, UPDATE_SPECS[:config.n_agents])
    rng = np.random.default_rng(seed)
    for learner in trainer.learners:
        learner.alpha = config.fixed_alpha or float(rng.uniform(0.01, 1.0))
        for net in (learner.policy, learner.value_a, learner.value_e):
            net.weights[-1][...] = rng.normal(scale=0.3, size=net.weights[-1].shape)
    return trainer.env, trainer.learners


def _state(learner) -> bytes:
    """Every network's and Adam moment's bytes, and the Adam step counts."""
    adams = (learner.adam_policy, learner.adam_value_a, learner.adam_value_e)
    arrays = [learner.policy, learner.value_a, learner.value_e] + [x for a in adams for x in (a.m, a.v)]
    return b"".join(x.data.tobytes() for x in arrays) + repr([a.t for a in adams]).encode()


@settings(PROPERTY, max_examples=50)
@given(agents=st.integers(1, 8), mode=st.sampled_from(["dynamic", "fixed-alpha:0.3", "ippo"]),
       data=st.data(), seed=st.integers(0, 2**16))
def test_fused_update_equals_solo_updates(agents, mode, data, seed):
    """``update_agent`` over every agent gives each agent the bytes and stats of updating it alone."""
    own = data.draw(st.lists(OWN, min_size=agents, max_size=agents))
    demos = data.draw(st.lists(DEMO, min_size=agents, max_size=agents))
    config = TrainConfig(n_agents=agents, epochs=4, steps_per_episode=64, update_epochs=2, mode=mode)
    env, together = _learners(config, seed)
    rng = np.random.default_rng(seed)
    tau_a = [_hand_trajectory(env, i, m, rng, terminated=bool(rng.integers(2)), behaviour=True)
             for i, m in enumerate(own)]
    tau_e = [None if m is None else _hand_trajectory(env, i, m, rng, terminated=bool(rng.integers(2)),
                                                     behaviour=False)
             for i, m in enumerate(demos)]
    stats = update_agent(together, tau_a, tau_e, 1, config)
    _, alone = _learners(config, seed)
    for i in range(agents):
        alone_stats, = update_agent([alone[i]], [tau_a[i]], [tau_e[i]], 1, config)
        assert (_state(together[i]), repr(stats[i])) == (_state(alone[i]), repr(alone_stats)), f"agent {i}"

"""Property tests: the per-agent episode walks equal the test-side reference's joint episode.

``trajectory.run_episode`` walks each agent's episode on its own and scores
every move afterwards.  These tests draw tasks, depart times, congestion on
or off, sit-outs and step limits (short enough to cut episodes and long
enough to let them finish), and check what ``rollout`` and ``replay`` record
against ``reference.joint_episode``, which steps all agents together and
scores every move with its own copy of the reward formula.  The policy table
a rollout walks from is checked row by row against single forwards, each
sampled step's ``draw`` against ``Generator.choice``, and one update of
every agent together against updating each agent alone and against the
reference's one-network-at-a-time update.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from routecoach import (AgentSpec, RouteEnv, TrainConfig, Trainer, generate_agent_specs, grid_graph, hilly_graph,
                        nets)
from routecoach import demos as dg
from routecoach.env import EnvError
from routecoach.graph import INF, Edge, RoadGraph
from routecoach.training import agent_rng, choice_cdf, draw, policy_table, rollout, update_agent
from routecoach.trajectory import run_episode
from reference import (episode_record, joint_episode, learner_bytes, policy_episode, primitive_update,
                       route_episode)
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
    assert episode_record(trajectories) == episode_record(policy_episode(env, policies, None if greedy else rngs))
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
    assert episode_record(trajectories[i] for i in range(env.n_agents)) == episode_record(route_episode(env, routes))


@PROPERTY
@given(env=envs(), data=st.data())
def test_masked_action_raises_naming_agent_and_junction(env, data):
    """Agents take slot 0 until one returns a masked action; the walk raises what ``env.step`` raises."""
    agent = data.draw(st.integers(0, env.n_agents - 1))
    tau = joint_episode(env, lambda i, junction: 0)[agent]
    assume(len(tau))
    step = data.draw(st.integers(0, len(tau) - 1))
    junction = int(tau.junction_path[step])
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
    log_probs, probs = nets.policy_table_forward(policies, obs, masks)
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


def _update_case(agents, mode, data, seed):
    """(config, learners, agent trajectories, expert trajectories) drawn for one update."""
    own = data.draw(st.lists(OWN, min_size=agents, max_size=agents))
    demos = data.draw(st.lists(DEMO, min_size=agents, max_size=agents))
    config = TrainConfig(n_agents=agents, epochs=4, steps_per_episode=64, update_epochs=2, mode=mode)
    env, learners = _learners(config, seed)
    rng = np.random.default_rng(seed)
    tau_a = [_hand_trajectory(env, i, m, rng, terminated=bool(rng.integers(2)), behaviour=True)
             for i, m in enumerate(own)]
    tau_e = [None if m is None else _hand_trajectory(env, i, m, rng, terminated=bool(rng.integers(2)),
                                                     behaviour=False)
             for i, m in enumerate(demos)]
    return config, learners, tau_a, tau_e


UPDATES = dict(agents=st.integers(1, 8), mode=st.sampled_from(["dynamic", "fixed-alpha:0.3", "ippo"]),
               data=st.data(), seed=st.integers(0, 2**16))


@settings(PROPERTY, max_examples=50)
@given(**UPDATES)
def test_fused_update_equals_solo_updates(agents, mode, data, seed):
    """``update_agent`` over every agent gives each agent the bytes and stats of updating it alone."""
    config, together, tau_a, tau_e = _update_case(agents, mode, data, seed)
    stats = update_agent(together, tau_a, tau_e, 1, config)
    _, alone = _learners(config, seed)
    for i in range(agents):
        alone_stats, = update_agent([alone[i]], [tau_a[i]], [tau_e[i]], 1, config)
        assert ((learner_bytes(together[i]), repr(stats[i]))
                == (learner_bytes(alone[i]), repr(alone_stats))), f"agent {i}"


@PROPERTY
@given(**UPDATES)
def test_fused_update_equals_reference(agents, mode, data, seed):
    """``update_agent`` over every agent gives each agent the bytes of ``reference.primitive_update`` on it alone."""
    config, together, tau_a, tau_e = _update_case(agents, mode, data, seed)
    update_agent(together, tau_a, tau_e, 1, config)
    _, alone = _learners(config, seed)
    for i in range(agents):
        if len(tau_a[i]) > 0:
            primitive_update(alone[i], tau_a[i], tau_e[i], config)
        assert learner_bytes(together[i]) == learner_bytes(alone[i]), f"agent {i}"


@PROPERTY
@given(grid=st.integers(3, 5), agents=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["dynamic", "ippo", "fixed-alpha:0.3", "fixed-alpha:1"]))
def test_training_is_decentralized(grid, agents, data, seed, mode):
    """Training the first m of n agents gives them what training all n gives them, every epoch and at the end.

    Congestion is off, and the provider is the oracle (none under ``ippo``): the
    logit provider draws every agent's route from one shared generator.
    """
    few = data.draw(st.integers(1, agents - 1), label="few")
    config = dict(epochs=4, steps_per_episode=30, demo_interval=2, update_epochs=2, seed=seed, mode=mode,
                  expert_provider="none" if mode == "ippo" else "oracle", congestion=False)
    graph = grid_graph(grid)
    runs = [Trainer(TrainConfig(n_agents=n, **config), graph, generate_agent_specs(graph, n, seed))
            for n in (few, agents)]
    for _ in range(config["epochs"]):
        small, large = (run.run_epoch() for run in runs)
        for field in ("reward_a", "alpha", "dtw"):
            assert repr(getattr(small, field)) == repr(getattr(large, field)[:few]), field
    for i in range(few):
        assert learner_bytes(runs[0].learners[i]) == learner_bytes(runs[1].learners[i]), f"agent {i}"

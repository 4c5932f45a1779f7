import re

import numpy as np
import pytest

from routecoach import AgentSpec, grid_graph, line_graph
from routecoach.env import EnvError, EnvState, RouteEnv
from routecoach.graph import INF, Edge, RoadGraph
from routecoach.training import TrainConfig, env_from_config
from routecoach.trajectory import run_episode
from reference import reference_observation


def scores(graph, start, dest):
    """The score of each junction's slot ``a`` (column ``2 + 2 * a`` of its row) for an agent heading to ``dest``."""
    return RouteEnv(graph, (AgentSpec(0, start, dest),)).agent_tables(0)[0][:, 2::2]


def test_edge_score_line(line):
    # diameter 2; A->B carries full remaining cost, B->C half
    score = scores(line, 0, 2)
    assert score[0, 0] == pytest.approx(-1.0)
    assert score[1, 0] == pytest.approx(-0.5)


def test_edge_score_unreachable_sentinel():
    g = RoadGraph({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                  [Edge(0, 1, 1.0), Edge(0, 2, 4.0)])
    # from junction 1 nothing is reachable; heading for 2 via 1 is hopeless
    assert scores(g, 0, 2)[0, 0] == -10.0


def test_edge_score_monotone_on_grid(grid5):
    # uniform edge lengths: closer endpoint <=> strictly larger score
    dist = grid5.distances_to(24)
    score = scores(grid5, 0, 24)
    for j in grid5.nodes:
        edges = grid5.out_edges(j)
        for slot_a, a in enumerate(edges):
            for slot_b, b in enumerate(edges):
                if dist[a.dst] < dist[b.dst]:
                    assert score[j, slot_a] > score[j, slot_b]


def test_observation_layout_line(line, line_specs):
    env = RouteEnv(line, line_specs)
    obs = env.observe(env.reset(), 0)
    np.testing.assert_allclose(obs.vector, [0.0, 1.0, -1.0, 0.5])
    assert obs.mask.tolist() == [True]


def test_observation_padding():
    # junction 0 has out-degree 1 in a graph whose m is 2
    g = RoadGraph(
        {0: (0, 0), 1: (1, 0), 2: (2, 0)},
        [Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(1, 2, 1.0)],
    )
    env = RouteEnv(g, (AgentSpec(0, 0, 2),))
    obs = env.observe(env.reset(), 0)
    assert obs.vector.shape == (2 + 2 * 2,)
    assert obs.vector[4] == 0.0 and obs.vector[5] == -1.0
    assert obs.mask.tolist() == [True, False]


@pytest.mark.parametrize("name", ["grid5", "hilly", "line"])
def test_tables_match_edge_score_bit_for_bit(name, request):
    graph = request.getfixturevalue(name)
    # one agent per destination that some other junction reaches
    specs = []
    for dest in graph.nodes:
        dist = graph.distances_to(dest)
        starts = [j for j in graph.nodes if j != dest and dist[j] != INF]
        if starts:
            specs.append(AgentSpec(len(specs), starts[0], dest))
    env = RouteEnv(graph, specs)
    state = env.reset()
    unreachable_slots = 0
    for spec in specs:
        obs_table, mask_table = env.agent_tables(spec.agent_id)
        for j in graph.nodes:
            vector, mask = reference_observation(graph, j, spec.dest)
            np.testing.assert_array_equal(obs_table[j].view(np.uint64), vector.view(np.uint64))
            np.testing.assert_array_equal(mask_table[j], mask)
            unreachable_slots += int((vector[2::2] == -10.0).sum())
        assert env.observe(state, spec.agent_id).vector.view(np.uint64).tolist() == \
            reference_observation(graph, spec.start, spec.dest)[0].view(np.uint64).tolist()
    assert (unreachable_slots > 0) == (name == "line")


def test_observations_are_read_only(grid5):
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0, depart_time=2)))
    state = env.reset()
    obs = [env.observe(state, i) for i in range(2)]
    state, _ = env.step(state, [0, None])
    for o in (*obs, env.observe(state, 0), env.observe(state, 1)):
        with pytest.raises(ValueError, match="read-only"):
            o.vector[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            o.mask[0] = True
    obs_table, mask_table = env.agent_tables(0)
    with pytest.raises(ValueError, match="read-only"):
        obs_table[0, 2] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        mask_table[0, 0] = False
    with pytest.raises(ValueError, match="read-only"):
        env.mask_table[0, 0] = False
    # observe reads the agent's row of the shared tables; the mask is all false before departure
    for i in range(2):
        j = int(state.positions[i])
        np.testing.assert_array_equal(env.observe(state, i).vector, env.agent_tables(i)[0][j])
    np.testing.assert_array_equal(env.observe(state, 0).mask, env.mask_table[state.positions[0]])
    assert env.observe(state, 0).mask.any() and not env.observe(state, 1).mask.any()
    np.testing.assert_array_equal(env.observe(state, 0).vector,
                                  reference_observation(grid5, int(state.positions[0]), 24)[0])


def test_observation_layout_all_states(grid5):
    specs = (AgentSpec(0, 0, 24), AgentSpec(1, 7, 3))
    env = RouteEnv(grid5, specs)
    state = env.reset()
    obs = [env.observe(state, i) for i in range(2)]
    for i, spec in enumerate(specs):
        assert obs[i].vector.shape == (2 + 2 * grid5.max_out_degree,)
        assert obs[i].mask.sum() == len(grid5.out_edges(state.positions[i]))


def test_step_rewards_line(line, line_specs):
    env = RouteEnv(line, line_specs)
    state = env.reset()
    state, rewards = env.step(state, [0])
    assert rewards[0] == pytest.approx(0.9)  # -0.1 + (2 - 1)
    assert not state.done[0]
    state, rewards = env.step(state, [0])
    assert rewards[0] == pytest.approx(10.9)  # -0.1 + 1 + 10
    assert state.done[0] and env.episode_done(state)


def test_step_after_done_rejected(line, line_specs):
    env = RouteEnv(line, line_specs)
    state = env.reset()
    state, _ = env.step(state, [0])
    state, _ = env.step(state, [0])
    with pytest.raises(EnvError, match="reset"):
        env.step(state, [0])


def test_masked_action_rejected(line, line_specs):
    env = RouteEnv(line, line_specs)
    state = env.reset()
    with pytest.raises(EnvError, match="agent 0"):
        env.step(state, [3])
    with pytest.raises(EnvError, match="agent 0"):
        env.step(state, [None])


def test_reset_deterministic(grid5):
    specs = tuple(AgentSpec(i, i, 24 - i) for i in range(3))
    env = RouteEnv(grid5, specs)
    state1, state2 = env.reset(), env.reset()
    for field in ("positions", "done", "arrived"):
        np.testing.assert_array_equal(getattr(state1, field), getattr(state2, field))
    for i in range(3):
        a, b = env.observe(state1, i), env.observe(state2, i)
        np.testing.assert_array_equal(a.vector, b.vector)
        np.testing.assert_array_equal(a.mask, b.mask)


def test_reset_returns_only_the_state(grid5, monkeypatch):
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0, depart_time=2)))
    monkeypatch.setattr(RouteEnv, "observe", lambda *args: pytest.fail("reset observed an agent"))
    state = env.reset(sit_out=[1])
    assert isinstance(state, EnvState)
    assert (state.step, state.positions.tolist(), state.done.tolist(), state.arrived.tolist()) == \
        (0, [0, 24], [False, True], [False, False])


@pytest.mark.parametrize("agent", [-1, 2])
def test_sit_out_outside_the_agent_ids_raises(grid5, agent):
    """-1 would sit out the last agent by numpy indexing, and 2 is past the end.

    ``reset`` and ``run_episode`` share one check, so each raises the same
    message, for a list or an iterator of ids alike.
    """
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0)))
    with pytest.raises(EnvError, match=f"cannot sit out agent {agent}"):
        env.reset(sit_out=[agent])
    with pytest.raises(EnvError, match=f"cannot sit out agent {agent}"):
        run_episode(env, lambda i, junction: 0, sit_out=[0, agent])
    message = re.escape(f"cannot sit out agent {agent}: ids run from 0 to 1")
    for sit_out in ([agent], iter([0, agent])):
        with pytest.raises(EnvError, match=f"^{message}$"):
            run_episode(env, lambda i, junction: 0, sit_out=sit_out)
    with pytest.raises(EnvError, match=f"^{message}$"):
        env.reset(sit_out=iter([agent]))


def test_sit_out_iterator_sits_agents_out(grid5):
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0)))
    assert env.reset(sit_out=iter([1])).done.tolist() == [False, True]
    trajectories = run_episode(env, lambda i, junction: 0, sit_out=iter([1]))
    assert len(trajectories[0]) > 0 and trajectories[1].junction_path.tolist() == [24]


def test_defaults_match_the_train_config_defaults(grid5):
    """A ``RouteEnv`` built without settings scores walks as one built from a default ``TrainConfig``."""
    specs = (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0, depart_time=1), AgentSpec(2, 12, 24))
    plain, configured = RouteEnv(grid5, specs), env_from_config(grid5, specs, TrainConfig(n_agents=len(specs)))
    assert plain.step_limit == configured.step_limit == TrainConfig().steps_per_episode

    def choose(i: int, junction: int) -> int:  # agents 0 and 1 head for their destinations, agent 2 wanders
        if i == 2:
            return 0
        obs, mask = plain.agent_tables(i)
        return int(np.argmax(np.where(mask[junction], obs[junction, 2::2], -np.inf)))

    walks = [run_episode(env, choose) for env in (plain, configured)]
    for a, b in zip(*walks):
        assert a.junction_path.tolist() == b.junction_path.tolist()
        assert a.rewards.tolist() == b.rewards.tolist()
    assert [(t.arrived, len(t)) for t in walks[0]] == [(True, 8), (True, 8), (False, 200)]


def test_reset_observation_count_grid(grid5):
    specs = tuple(AgentSpec(i, i, 24 - i) for i in range(10))
    env = RouteEnv(grid5, specs)
    state = env.reset()
    obs = [env.observe(state, i) for i in range(env.n_agents)]
    assert len(obs) == 10
    assert all(o.vector.shape == (10,) for o in obs)


def test_done_agent_observation_frozen(line):
    # two agents; agent 0 arrives first, after which its observation repeats
    specs = (AgentSpec(0, 1, 2), AgentSpec(1, 0, 2))
    env = RouteEnv(line, specs)
    state = env.reset()
    state, rewards = env.step(state, [0, 0])
    assert state.done[0] and not state.done[1]
    frozen = env.observe(state, 0).vector.copy()
    state, rewards = env.step(state, [None, 0])
    np.testing.assert_array_equal(env.observe(state, 0).vector, frozen)
    assert rewards[0] == 0.0


def test_depart_time_masks_until_spawn(line):
    env = RouteEnv(line, (AgentSpec(0, 0, 2, depart_time=2),))
    state = env.reset()
    assert not env.observe(state, 0).mask.any()
    state, rewards = env.step(state, [None])
    assert rewards[0] == 0.0
    assert not env.observe(state, 0).mask.any()
    state, rewards = env.step(state, [None])
    assert env.observe(state, 0).mask.tolist() == [True]  # spawned at t=2


def test_bad_specs_rejected(line):
    with pytest.raises(EnvError, match="start equals destination"):
        RouteEnv(line, (AgentSpec(0, 1, 1),))
    with pytest.raises(EnvError, match="unreachable"):
        RouteEnv(line, (AgentSpec(0, 2, 0),))
    with pytest.raises(EnvError, match="unknown junction"):
        RouteEnv(line, (AgentSpec(0, 0, 9),))
    with pytest.raises(EnvError, match="ordered"):
        RouteEnv(line, (AgentSpec(1, 0, 2),))


def test_construction_reads_reachability_without_path_search(grid5, line, monkeypatch):
    def no_search(self, a, b):
        raise AssertionError("RouteEnv searched for a path")

    monkeypatch.setattr(RoadGraph, "shortest_path", no_search)
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0)))
    env.agent_tables(0)  # builds the lookup tables from the cached distance maps
    with pytest.raises(EnvError, match="unreachable"):
        RouteEnv(line, (AgentSpec(0, 2, 0),))


def test_trajectory_determinism(grid5):
    specs = (AgentSpec(0, 0, 24), AgentSpec(1, 24, 0))
    env = RouteEnv(grid5, specs)
    rng = np.random.default_rng(3)
    actions = []
    state = env.reset()
    obs = [env.observe(state, i) for i in range(2)]
    while not env.episode_done(state):
        joint = [int(rng.integers(obs[i].mask.sum())) if i in env.acting(state) else None
                 for i in range(2)]
        actions.append(joint)
        state, rewards = env.step(state, joint)
        obs = [env.observe(state, i) for i in range(2)]
    final_a = state

    state = env.reset()
    for joint in actions:
        state, rewards = env.step(state, joint)
    assert state.step == final_a.step  # bit-exact replay
    for field in ("positions", "done", "arrived"):
        np.testing.assert_array_equal(getattr(state, field), getattr(final_a, field))


def test_shaping_telescopes(grid5):
    # summed shaping over an episode that arrives equals dist(start, dest)
    spec = AgentSpec(0, 0, 24)
    env = RouteEnv(grid5, (spec,))
    dist = grid5.distances_to(24)
    rng = np.random.default_rng(11)
    state = env.reset()
    obs = [env.observe(state, 0)]
    total_shaping = 0.0
    while not env.episode_done(state):
        a = int(rng.integers(obs[0].mask.sum()))
        before = state.positions[0]
        state, rewards = env.step(state, [a])
        after = state.positions[0]
        total_shaping += dist[before] - dist[after]
        obs = [env.observe(state, 0)]
    if state.arrived[0]:
        assert total_shaping == pytest.approx(dist[spec.start])


def test_congestion_multiplier():
    g = line_graph((1.0, 1.0))
    specs = (AgentSpec(0, 0, 2), AgentSpec(1, 0, 2))
    plain = RouteEnv(g, specs)
    state = plain.reset()
    _, rewards = plain.step(state, [0, 0])
    assert rewards[0] == pytest.approx(0.9)

    jam = RouteEnv(g, specs, congestion=True)
    state = jam.reset()
    _, rewards = jam.step(state, [0, 0])
    # two agents on the same edge double the time penalty
    assert rewards[0] == pytest.approx(1.0 - 0.2)
    assert rewards[1] == pytest.approx(1.0 - 0.2)


def test_moves_into_junctions_cut_off_from_the_destination_score_finitely():
    """0 <-> 1 <-> 2 plus one-way spurs 0 -> 3 -> 4: a junction cut off from 2 counts as the diameter away."""
    g = RoadGraph({j: (j, 0) for j in range(5)},
                  [Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(1, 2, 1.0), Edge(2, 1, 1.0), Edge(0, 3, 1.0), Edge(3, 4, 1.0)])
    env = RouteEnv(g, (AgentSpec(0, 0, 2),))
    src, slot = np.nonzero(env.mask_table)  # every valid move
    rewards = env.move_rewards(np.zeros(len(src), dtype=int), np.zeros(len(src), dtype=int), src, slot)
    assert np.isfinite(rewards).all()
    reward = dict(zip(zip(src.tolist(), slot.tolist()), rewards.tolist()))
    assert reward[0, 1] == pytest.approx(-0.1 + 2.0 - g.diameter)  # 0 -> 3
    assert reward[3, 0] == pytest.approx(-0.1)  # 3 -> 4, both cut off


def test_agents_of_one_destination_share_one_observation_table(grid5):
    env = RouteEnv(grid5, (AgentSpec(0, 0, 24), AgentSpec(1, 4, 24), AgentSpec(2, 24, 0)))
    assert np.shares_memory(env.agent_tables(0)[0], env.agent_tables(1)[0])
    assert not np.shares_memory(env.agent_tables(0)[0], env.agent_tables(2)[0])


def test_dead_end_terminates_without_arrival():
    # junction 1 has no outgoing edges and is not the destination
    g = RoadGraph({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                  [Edge(0, 1, 1.0), Edge(0, 2, 5.0)])
    env = RouteEnv(g, (AgentSpec(0, 0, 2),))
    state = env.reset()
    state, _ = env.step(state, [0])  # ordered adjacency: index 0 is the edge into 1
    assert state.done[0] and not state.arrived[0]
    assert env.episode_done(state)

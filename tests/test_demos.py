import numpy as np
import pytest

from routecoach import AgentSpec, grid_graph, line_graph
from routecoach import demos as dg
from routecoach.env import RouteEnv, EnvError


@pytest.fixture()
def grid3():
    return grid_graph(3)


class TestParse:
    def test_strict_json(self, line):
        parsed = dg.parse_instructions('{"0": [0, 1, 2]}', 1, line)
        assert parsed.waypoints == {0: [0, 1, 2]}
        assert parsed.errors == []

    def test_single_quoted_mapping(self, line):
        parsed = dg.parse_instructions("Here you go: {'0': [0, 1, 2]}", 1, line)
        assert parsed.waypoints == {0: [0, 1, 2]}

    def test_int_keys_and_fences(self, line):
        parsed = dg.parse_instructions("```json\n{0: [0, 1, 2]}\n```", 1, line)
        assert parsed.waypoints == {0: [0, 1, 2]}

    @pytest.mark.parametrize("text", ['{"0": [0, 1, 2], "note": "a { b"}', '{"0": [0, 1, 2], "note": "a } b"}',
                                      '{"note": "a \\" } b", "0": [0, 1, 2]}', "{'note': 'it\\'s } {', '0': [0, 1, 2]}"])
    def test_braces_inside_strings_do_not_count(self, line, text):
        parsed = dg.parse_instructions(text, 1, line)
        assert parsed.waypoints == {0: [0, 1, 2]}
        assert parsed.errors == ["unparsable agent id 'note'"]

    def test_prose_without_mapping(self, line):
        parsed = dg.parse_instructions("I cannot answer that.", 1, line)
        assert parsed.waypoints == {}
        assert len(parsed.errors) == 1
        assert "no parsable" in parsed.errors[0]

    def test_unknown_junction_carries_fragment(self, grid3):
        parsed = dg.parse_instructions('{"0": [0, 99]}', 1, grid3)
        assert 0 not in parsed.waypoints
        assert any("99" in e for e in parsed.errors)

    def test_unknown_agent(self, grid3):
        parsed = dg.parse_instructions('{"7": [0, 1]}', 1, grid3)
        assert parsed.waypoints == {}
        assert any("7" in e for e in parsed.errors)

    def test_partial_mapping_keeps_good_agents(self, grid3):
        parsed = dg.parse_instructions('{"0": [0, 1], "1": "nope"}', 2, grid3)
        assert parsed.waypoints == {0: [0, 1]}
        assert len(parsed.errors) == 1

    def test_agent_ids_are_ints_or_integer_strings(self, grid3):
        parsed = dg.parse_instructions("{1.7: [0, 1, 2], True: [0, 3], ' 2 ': [0, 1], '0x1': [0, 1]}", 3, grid3)
        assert parsed.waypoints == {2: [0, 1]}
        assert [e.split(" ", 3)[-1] for e in parsed.errors] == ["1.7", "True", "'0x1'"]

    def test_unhashable_key_is_unparsable(self, grid3):
        parsed = dg.parse_instructions("{[1]: [0, 1]}", 2, grid3)
        assert parsed.waypoints == {} and "no parsable" in parsed.errors[0]

    @pytest.mark.parametrize("text", ['Format: {agent id: route}. Answer: {"0": [0, 1, 2]}',
                                      'Here\'s the format: {agent id: route}. It\'s this: {"0": [0, 1, 2]}'])
    def test_a_later_brace_group_is_tried(self, line, text):
        parsed = dg.parse_instructions(text, 1, line)
        assert parsed.waypoints == {0: [0, 1, 2]}
        assert parsed.errors == []

    def test_an_unclosed_brace_ends_the_search(self, line):
        parsed = dg.parse_instructions('Format: {agent id: route. Answer: {"0": [0, 1, 2]', 1, line)
        assert parsed.waypoints == {} and "no parsable" in parsed.errors[0]

    @pytest.mark.parametrize("text", [
        '{"0": ' + "[" * 5000 + "]" * 5000 + "}",  # json: RecursionError
        "{'0': " + "[" * 5000 + "]" * 5000 + "}",  # Python: too many nested parentheses
        "{0: " + "-" * 5000 + "1}",  # Python: RecursionError
        "{0: " + "-" * 20000 + "1}",  # Python: MemoryError, the parser's stack overflow
    ], ids=["json-lists", "python-lists", "python-minus-5000", "python-minus-20000"])
    def test_nesting_too_deep_is_unparsable(self, line, text):
        parsed = dg.parse_instructions(text, 1, line)
        assert parsed.waypoints == {} and "no parsable" in parsed.errors[0]
        later = dg.parse_instructions(text + ' or {"0": [0, 1, 2]}', 1, line)
        assert later.waypoints == {0: [0, 1, 2]}

    @pytest.mark.parametrize("text", ["{1: [0, 1], '1': [0, 3]}", "{'1': [0, 1], ' 1': [0, 3], 1: [0, 1]}",
                                      '{"1": [0, 1], "1": [0, 3]}', "{1: [0, 1], 1: [0, 3]}"])
    def test_repeated_agent_gets_no_waypoints(self, grid3, text):
        parsed = dg.parse_instructions(text, 2, grid3)
        assert parsed.waypoints == {}
        assert "agent 1: more than one route" in parsed.errors
        executable = dg.prepare_executable(grid3, (AgentSpec(0, 0, 8), AgentSpec(1, 0, 1)), parsed)
        assert executable.fallback_agents == {0, 1}


class TestValidateCompile:
    def test_valid_route(self, line):
        spec = AgentSpec(0, 0, 2)
        assert dg.validate_route(line, spec, [0, 1, 2])

    def test_missing_edge(self, line):
        assert not dg.validate_route(line, AgentSpec(0, 0, 2), [0, 2])

    def test_wrong_origin(self, line):
        assert not dg.validate_route(line, AgentSpec(0, 0, 2), [1, 2])

    def test_wrong_destination(self, grid3):
        assert not dg.validate_route(grid3, AgentSpec(0, 0, 8), [0, 1, 2])

    def test_compile_line(self, line):
        assert dg.compile_to_actions(line, AgentSpec(0, 0, 2), [0, 1, 2]) == [0, 0]

    def test_compile_respects_adjacency_order(self, grid3):
        # junction 4 (grid center) has ordered out-edges to 1, 3, 5, 7
        actions = dg.compile_to_actions(grid3, AgentSpec(0, 4, 8), [4, 5, 8])
        assert actions == [2, next(i for i, e in enumerate(grid3.out_edges(5)) if e.dst == 8)]

    def test_compile_single_hop(self, line):
        assert dg.compile_to_actions(line, AgentSpec(0, 0, 1), [0, 1]) == [0]

    def test_compile_rejects_invalid(self, line):
        with pytest.raises(ValueError, match="agent 0"):
            dg.compile_to_actions(line, AgentSpec(0, 0, 2), [0, 2])

    def test_compiled_actions_reproduce_route(self, grid3):
        spec = AgentSpec(0, 0, 8)
        waypoints = [0, 1, 4, 5, 8]
        actions = dg.compile_to_actions(grid3, spec, waypoints)
        env = RouteEnv(grid3, (spec,))
        state = env.reset()
        visited = [0]
        for a in actions:
            state, _ = env.step(state, [a])
            visited.append(state.positions[0])
        assert visited == waypoints


class TestValidityRate:
    def test_three_of_four(self):
        assert dg.validity_rate([True, True, True, False]) == 75.0

    def test_all_valid(self):
        assert dg.validity_rate([True] * 7) == 100.0

    def test_empty(self):
        assert dg.validity_rate([]) == 0.0


class TestExperts:
    def test_oracle_line(self, line):
        specs = (AgentSpec(0, 0, 2),)
        routes = dg.oracle_expert(line, specs)
        assert routes.routes[0] == (0, 1, 2)

    def test_oracle_two_node(self):
        g = line_graph((4.0,))
        specs = (AgentSpec(0, 0, 1),)
        routes = dg.oracle_expert(g, specs)
        assert routes.routes[0] == (0, 1)

    def test_oracle_always_validates(self, grid5):
        specs = tuple(AgentSpec(i, i, 24 - i) for i in range(5))
        routes = dg.oracle_expert(grid5, specs)
        for spec in specs:
            assert dg.validate_route(grid5, spec, routes.routes[spec.agent_id])

    def test_oracle_unreachable(self):
        g = line_graph((1.0,))
        with pytest.raises(ValueError, match="agent 0: destination unreachable"):
            dg.oracle_expert(g, (AgentSpec(0, 1, 0),))
        # the oracle fallback of a route that is not valid raises the same error
        with pytest.raises(ValueError, match="agent 0: destination unreachable"):
            dg.prepare_executable(g, (AgentSpec(0, 1, 0),), dg.ParsedRoutes(waypoints={}))

    def test_logit_single_route(self, line):
        rng = np.random.default_rng(0)
        specs = (AgentSpec(0, 0, 2),)
        routes = dg.logit_expert(line, specs, 1.0, rng)
        assert routes.routes[0] == (0, 1, 2)

    def test_logit_equal_costs_split_evenly(self):
        # two disjoint equal-cost routes 0 -> 3
        from routecoach.graph import Edge, RoadGraph
        g = RoadGraph(
            {0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0)},
            [Edge(0, 1, 1.0), Edge(1, 3, 1.0), Edge(0, 2, 1.0), Edge(2, 3, 1.0)],
        )
        rng = np.random.default_rng(5)
        specs = (AgentSpec(0, 0, 3),)
        counts = {1: 0, 2: 0}
        for _ in range(10000):
            routes = dg.logit_expert(g, specs, temperature=3.0, rng=rng)
            counts[routes.routes[0][1]] += 1
        assert counts[1] / 10000 == pytest.approx(0.5, abs=0.02)

    def test_logit_low_temperature_prefers_shortest(self, grid5):
        rng = np.random.default_rng(7)
        specs = (AgentSpec(0, 0, 7),)
        best_cost, _ = grid5.shortest_path(0, 7)
        hits = 0
        draws = 10000
        for _ in range(draws):
            routes = dg.logit_expert(grid5, specs, temperature=1e-3, rng=rng)
            waypoints = routes.routes[0]
            cost = sum(grid5.edge_between(u, v).length for u, v in zip(waypoints, waypoints[1:]))
            hits += cost == pytest.approx(best_cost)
        assert hits / draws > 0.99

    def test_logit_rejects_bad_temperature(self, line):
        with pytest.raises(ValueError, match="temperature"):
            dg.logit_expert(line, (AgentSpec(0, 0, 2),), 0.0, np.random.default_rng(0))


class TestPrepareAndExecute:
    def test_fallback_oracle_substitutes(self, grid3):
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6))
        parsed = dg.parse_instructions('{"0": [0, 1, 2, 5, 8]}', 2, grid3)
        executable = dg.prepare_executable(grid3, specs, parsed, fallback="oracle")
        assert executable.valid() == [True, False]
        assert executable.fallback_agents == {1}
        assert executable.routes[0] == (0, 1, 2, 5, 8)
        assert dg.validate_route(grid3, specs[1], executable.routes[1])

    def test_fallback_skip_leaves_empty(self, grid3):
        specs = (AgentSpec(0, 0, 8),)
        parsed = dg.parse_instructions("garbage", 1, grid3)
        executable = dg.prepare_executable(grid3, specs, parsed, fallback="skip")
        assert executable.routes[0] == ()
        assert executable.valid() == [False]

    def test_execute_reaches_destination(self, line):
        specs = (AgentSpec(0, 0, 2),)
        routes = dg.oracle_expert(line, specs)
        trajs = dg.execute_demos(line, specs, routes)
        traj = trajs[0]
        assert traj.arrived and traj.terminated
        assert traj.junction_path.tolist() == [0, 1, 2]
        assert traj.rewards[-1] == pytest.approx(10.9)

    def test_replay_records_no_logp(self, line):
        specs = (AgentSpec(0, 0, 2),)
        trajs = dg.execute_demos(line, specs, dg.oracle_expert(line, specs))
        assert len(trajs[0]) == 2 and trajs[0].logps is None

    def test_replay_in_given_env_matches_execute(self, grid3):
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6, depart_time=2))
        routes = dg.oracle_expert(grid3, specs)
        env = RouteEnv(grid3, specs, step_limit=7, congestion=True)
        replayed = dg.replay(env, routes)
        executed = dg.execute_demos(grid3, specs, routes, step_limit=7, congestion=True)
        for i in executed:
            assert replayed[i].junction_path.tolist() == executed[i].junction_path.tolist()
            assert replayed[i].rewards.tolist() == executed[i].rewards.tolist()
            assert np.shares_memory(replayed[i].obs_table, env.agent_tables(i)[0])

    def test_execute_deterministic(self, grid3):
        specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6))
        routes = dg.oracle_expert(grid3, specs)
        a = dg.execute_demos(grid3, specs, routes)
        b = dg.execute_demos(grid3, specs, routes)
        for i in a:
            assert a[i].junction_path.tolist() == b[i].junction_path.tolist()
            assert a[i].rewards.tolist() == b[i].rewards.tolist()

    def test_execute_flags_fallback_agents(self, grid3):
        specs = (AgentSpec(0, 0, 8),)
        parsed = dg.parse_instructions("nothing here", 1, grid3)
        executable = dg.prepare_executable(grid3, specs, parsed, fallback="oracle")
        assert executable.fallback_agents == {0}
        trajs = dg.execute_demos(grid3, specs, executable)
        assert trajs[0].junction_path.tolist() == grid3.shortest_path(0, 8)[1]
        assert trajs[0].arrived

    def test_execute_skip_agent_single_point(self, grid3):
        specs = (AgentSpec(0, 0, 8),)
        parsed = dg.parse_instructions("nothing here", 1, grid3)
        executable = dg.prepare_executable(grid3, specs, parsed, fallback="skip")
        trajs = dg.execute_demos(grid3, specs, executable)
        assert len(trajs[0]) == 0
        assert trajs[0].junction_path.tolist() == [0]

    def test_execute_with_depart_time(self, grid3):
        specs = (AgentSpec(0, 0, 8, depart_time=0), AgentSpec(1, 2, 6, depart_time=3))
        routes = dg.oracle_expert(grid3, specs)
        trajs = dg.execute_demos(grid3, specs, routes)
        assert trajs[1].arrived
        assert trajs[1].junction_path[0] == 2

    def test_quality_record_bounds(self):
        with pytest.raises(ValueError):
            dg.DemoQualityRecord(token_count=1, validity_rate=150.0, mean_reward=0.0, mean_dtw=0.0)

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from routecoach import AgentSpec, grid_graph
from routecoach import demos as dg
from routecoach.graph import INF, Edge, RoadGraph
from routecoach.llm import (
    CompletionResult,
    EndpointConfig,
    HttpChatCompleter,
    MAX_ATTEMPTS,
    LlmError,
    MockChatCompleter,
)
from routecoach.prompts import OUTPUT_CONTRACT, PromptState, build_prompt, count_tokens, refine_prompt
from routecoach.training import TrainConfig, completer_for
from reference import read_prompt


@pytest.fixture()
def state():
    graph = grid_graph(3)
    specs = (AgentSpec(0, 0, 8), AgentSpec(1, 2, 6))
    return PromptState(graph=graph, specs=specs)


class TestPrompts:
    def test_fresh_prompt_sections(self, state):
        text = build_prompt(state)
        assert "Junctions" in text
        assert "0 -> 1 (1), 3 (1)" in text
        assert "0: 0 -> 8" in text
        assert "JSON object" in text
        assert "Feedback round" not in text

    def test_deterministic(self, state):
        assert build_prompt(state) == build_prompt(PromptState(graph=state.graph, specs=state.specs))
        assert build_prompt(state) is build_prompt(state)  # the stored text, rendered once

    def test_refinement_appends_prefix_preserving(self, state):
        base = build_prompt(state)
        refined = refine_prompt(
            state,
            {0: ([0, 1, 2], 1.5), 1: ([2, 1], -0.5)},
            {0: ([0, 3, 6, 7, 8], 12.0), 1: ([2, 5, 8, 7, 6], 11.0)},
            {0: 4.25, 1: 3.0},
        )
        text = build_prompt(refined)
        assert text.startswith(base)
        assert len(text) > len(base)
        assert "4.250" in text and "Feedback round 1" in text

    def test_repeated_refinement_distinct_records(self, state):
        s1 = refine_prompt(state, {0: ([0], 0.0)}, {0: ([0], 0.0)}, {0: 1.0})
        s2 = refine_prompt(s1, {0: ([0], 0.0)}, {0: ([0], 0.0)}, {0: 1.0})
        text = build_prompt(s2)
        headers = [line for line in text.splitlines() if line.startswith("--- Feedback round")]
        assert headers == ["--- Feedback round 1 ---", "--- Feedback round 2 ---"]
        assert s2.rounds == 2

    def test_token_count_grows_across_phases(self, state):
        tokens = [count_tokens(build_prompt(state))]
        s = state
        for _ in range(3):
            s = refine_prompt(s, {0: ([0, 1], 1.0)}, {0: ([0, 3], 2.0)}, {0: 2.0})
            tokens.append(count_tokens(build_prompt(s)))
        assert tokens == sorted(tokens) and tokens[-1] > tokens[0]


def number(x):
    """The prompt's number rule: ``:g`` when it reads back as ``x``, else ``repr``."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


def render_all_lines(state, rounds):
    """The prompt rendered line by line from the ``refine_prompt`` arguments of each round, at every call."""
    lines = [state.task, "", "Junctions (id: x, y):"]
    for j, (x, y) in sorted(state.graph.nodes.items()):
        lines.append(f"  {j}: ({number(x)}, {number(y)})")
    lines.append("")
    lines.append("Directed edges (from -> to, length):")
    for j in sorted(state.graph.nodes):
        out = state.graph.out_edges(j)
        if out:
            targets = ", ".join(f"{e.dst} ({number(e.length)})" for e in out)
            lines.append(f"  {j} -> {targets}")
    lines.append("")
    lines.append("Agents (id: start -> destination, departs at step):")
    for spec in state.specs:
        lines.append(f"  {spec.agent_id}: {spec.start} -> {spec.dest}, departs at {spec.depart_time}")
    lines.append("")
    lines.append(OUTPUT_CONTRACT)
    for phase, (agent_summary, expert_summary, dtw) in enumerate(rounds, start=1):
        lines.append("")
        lines.append(f"--- Feedback round {phase} ---")
        for agent_id, (route, reward) in sorted(agent_summary.items()):
            lines.append(f"  agent {agent_id} policy route {list(route)} reward {float(reward):.3f}")
        for agent_id, (route, reward) in sorted(expert_summary.items()):
            lines.append(f"  agent {agent_id} expert route {list(route)} reward {float(reward):.3f}")
        for agent_id, d in sorted(dtw.items()):
            lines.append(f"  agent {agent_id} trajectory DTW distance {float(d):.3f}")
        lines.append(
            "  Improve any invalid or low-reward routes; keep routes that "
            "already reach their destination cheaply."
        )
    return "\n".join(lines)


def test_prompt_bytes_match_line_by_line_renderer(state):
    rng = np.random.default_rng(3)

    def summary():
        return {a: (rng.integers(0, 9, size=rng.integers(0, 6)).tolist(), rng.normal(scale=20.0))
                for a in (0, 1) if rng.random() < 0.8}

    s, rounds = state, []
    assert build_prompt(s).encode() == render_all_lines(s, rounds).encode()
    for _ in range(6):
        rounds.append((summary(), summary(), {a: rng.random() * 9 for a in (0, 1)}))
        s = refine_prompt(s, *rounds[-1])
        assert build_prompt(s).encode() == render_all_lines(s, rounds).encode()
    assert build_prompt(s) is build_prompt(s)  # the second call returns the stored text
    assert s.rounds == 6
    # a state with its own task, refined with the last rounds only, renders them from round 1
    direct = PromptState(graph=s.graph, specs=s.specs, task="Route.")
    for args in rounds[2:]:
        direct = refine_prompt(direct, *args)
    assert build_prompt(direct).encode() == render_all_lines(direct, rounds[2:]).encode()


def assert_prompt_reads_back(graph, specs):
    """Junctions, edges in listed order and tasks read back from the prompt, and the oracle routes the same."""
    read_graph, read_specs = read_prompt(build_prompt(PromptState(graph=graph, specs=specs)))
    assert read_graph.nodes == graph.nodes
    assert read_graph.edges == tuple(e for j in sorted(graph.nodes) for e in graph.out_edges(j))
    assert read_specs == specs
    assert dg.oracle_expert(read_graph, read_specs).routes == dg.oracle_expert(graph, specs).routes


NUMBERS = st.one_of(st.floats(-1e7, 1e7), st.integers(-10**7, 10**7).map(float),
                    st.integers(-10**7, 10**7).map(lambda k: k / 1000))
LENGTHS = st.one_of(st.floats(1e-3, 1e7), st.integers(1, 10**7).map(float), st.integers(1, 10**7).map(lambda k: k / 1000))


@st.composite
def prompt_tasks(draw):
    """A graph of 2-6 junctions with random coordinates and lengths, and tasks between connected junctions."""
    n = draw(st.integers(2, 6))
    nodes = {j: (draw(NUMBERS), draw(NUMBERS)) for j in range(n)}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          unique=True, max_size=n * (n - 1)))
    graph = RoadGraph(nodes, [Edge(a, b, draw(LENGTHS)) for a, b in pairs])
    tasks = [(a, b) for a in graph.nodes for b in graph.nodes if a != b and graph.distances_to(b)[a] < INF]
    specs = tuple(AgentSpec(i, *draw(st.sampled_from(tasks)), depart_time=draw(st.integers(0, 9)))
                  for i in range(draw(st.integers(0, 4) if tasks else st.just(0))))
    return graph, specs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(task=prompt_tasks())
def test_prompt_reads_back_exactly(task):
    assert_prompt_reads_back(*task)


SQUARE = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)}


@pytest.mark.parametrize("lengths", [
    pytest.param((1234567.0, 1234567.0, 1234567.0, 1234568.0), id="lengths-that-print-alike"),
    pytest.param((1234568.0, 1234567.0, 1234567.0, 1234567.0), id="printed-tie-flips-the-route"),
])
def test_close_lengths_read_back(lengths):
    """Lengths of 0->1, 1->3, 0->2 and 2->3 that ``:g`` prints as one number, ``1.23457e+06``."""
    graph = RoadGraph(SQUARE, [Edge(a, b, x) for (a, b), x in zip(((0, 1), (1, 3), (0, 2), (2, 3)), lengths)])
    assert_prompt_reads_back(graph, (AgentSpec(0, 0, 3),))


def test_sixty_rounds_hold_about_one_prompt_text():
    """After 60 rounds on a grid-10, 12-agent task set, the state holds its text and little else."""
    graph = grid_graph(10)
    specs = tuple(AgentSpec(a, a, 99 - a) for a in range(12))
    rng = np.random.default_rng(0)

    def summary():
        return {a: (rng.integers(0, 100, size=rng.integers(2, 30)).tolist(), rng.normal(scale=20.0))
                for a in range(12)}

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = PromptState(graph=graph, specs=specs)
        for _ in range(60):
            build_prompt(s)  # as a trainer does before each round
            s = refine_prompt(s, summary(), summary(), {a: rng.random() * 50 for a in range(12)})
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    text = build_prompt(s)
    assert len(text) > 100_000
    assert held < 1.25 * len(text), f"{held} bytes held for a {len(text)}-char prompt"


def _response(payload, status=200):
    resp = mock.Mock()
    resp.status_code = status
    resp.json.return_value = payload
    if status >= 400:
        resp.raise_for_status.side_effect = requests.HTTPError(f"{status}")
    else:
        resp.raise_for_status.return_value = None
    return resp


class TestHttpCompleter:
    CONFIG = EndpointConfig(base_url="http://llm.test/v1", api_key="k", model="m")

    def test_success_reports_endpoint_tokens(self):
        payload = {"choices": [{"message": {"content": "{'0': [0, 1]}"}}],
                   "usage": {"total_tokens": 42}}
        with mock.patch.object(requests, "post", return_value=_response(payload)) as post:
            result = HttpChatCompleter(self.CONFIG).complete("hello world")
        assert result == CompletionResult(text="{'0': [0, 1]}", token_count=42)
        body = post.call_args.kwargs["json"]
        assert body["messages"] == [{"role": "user", "content": "hello world"}]
        assert body["temperature"] == 0.2
        assert post.call_args.kwargs["headers"]["Authorization"] == "Bearer k"

    def test_whitespace_tokens_when_usage_missing(self):
        payload = {"choices": [{"message": {"content": "a b c"}}]}
        with mock.patch.object(requests, "post", return_value=_response(payload)):
            result = HttpChatCompleter(self.CONFIG).complete("one two")
        assert result.token_count == 5

    def test_retries_then_succeeds(self):
        payload = {"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": 1}}
        sleeps = []
        with mock.patch.object(
            requests, "post",
            side_effect=[requests.Timeout("t"), requests.Timeout("t"), _response(payload)],
        ) as post:
            completer = HttpChatCompleter(self.CONFIG, sleep=sleeps.append)
            result = completer.complete("p")
        assert result.text == "ok"
        assert post.call_count == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff

    def test_exhausted_retries_raise(self):
        with mock.patch.object(requests, "post", side_effect=requests.Timeout("t")) as post:
            completer = HttpChatCompleter(self.CONFIG, sleep=lambda s: None)
            with pytest.raises(LlmError, match="3 attempts"):
                completer.complete("p")
        assert post.call_count == 3

    def test_http_error_counts_as_failure(self):
        with mock.patch.object(requests, "post", return_value=_response({}, status=500)):
            completer = HttpChatCompleter(self.CONFIG, sleep=lambda s: None)
            with pytest.raises(LlmError):
                completer.complete("p")

    @pytest.mark.parametrize("payload", [
        {"choices": []},
        [{"message": {"content": "a b"}}],
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": None}}], "usage": {"total_tokens": 3}},
    ], ids=["no-choices", "a-list", "null-content", "null-content-with-usage"])
    def test_malformed_body_counts_as_failure(self, payload):
        with mock.patch.object(requests, "post", return_value=_response(payload)) as post:
            completer = HttpChatCompleter(self.CONFIG, sleep=lambda s: None)
            with pytest.raises(LlmError, match="malformed completion body"):
                completer.complete("p")
        assert post.call_count == MAX_ATTEMPTS

    @pytest.mark.parametrize("usage", [{"total_tokens": 1.5e400}, {"total_tokens": -1}, {"total_tokens": 4.0},
                                       {"total_tokens": "42"}, {"total_tokens": True}, [42]],
                             ids=["overflow", "negative", "a-float", "a-string", "a-bool", "usage-a-list"])
    def test_whitespace_tokens_when_usage_unusable(self, usage):
        payload = {"choices": [{"message": {"content": "a b c"}}], "usage": usage}
        with mock.patch.object(requests, "post", return_value=_response(payload)):
            result = HttpChatCompleter(self.CONFIG).complete("one two")
        assert result == CompletionResult(text="a b c", token_count=5)

    @pytest.mark.parametrize("timeout", ["abc", "", "nan", "inf", "-1", "0"])
    def test_bad_timeout_raises(self, monkeypatch, timeout):
        monkeypatch.setenv("ROUTECOACH_LLM_BASE_URL", "http://x/v1")
        monkeypatch.setenv("ROUTECOACH_LLM_TIMEOUT", timeout)
        with pytest.raises(LlmError, match=f"ROUTECOACH_LLM_TIMEOUT must be a positive, finite number of "
                                           f"seconds, got '{timeout}'"):
            EndpointConfig.from_env()

    def test_config_from_env(self, monkeypatch):
        monkeypatch.delenv("ROUTECOACH_LLM_BASE_URL", raising=False)
        with pytest.raises(LlmError, match="ROUTECOACH_LLM_BASE_URL"):
            EndpointConfig.from_env()
        monkeypatch.setenv("ROUTECOACH_LLM_BASE_URL", "http://x/v1")
        monkeypatch.setenv("ROUTECOACH_LLM_API_KEY", "secret")
        monkeypatch.setenv("ROUTECOACH_LLM_MODEL", "m2")
        monkeypatch.setenv("ROUTECOACH_LLM_TIMEOUT", "7.5")
        cfg = EndpointConfig.from_env()
        assert (cfg.base_url, cfg.api_key, cfg.model, cfg.timeout) == ("http://x/v1", "secret", "m2", 7.5)
        monkeypatch.delenv("ROUTECOACH_LLM_MODEL")
        monkeypatch.delenv("ROUTECOACH_LLM_TIMEOUT")
        cfg = EndpointConfig.from_env()
        assert (cfg.model, cfg.timeout) == ("gpt-3.5-turbo", 30.0)


class TestCompleterFor:
    def test_llm_temperature_reaches_the_request(self, monkeypatch):
        monkeypatch.setenv("ROUTECOACH_LLM_BASE_URL", "http://llm.test/v1")
        completer = completer_for(TrainConfig(expert_provider="llm", llm_temperature=0.7))
        payload = {"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": 1}}
        with mock.patch.object(requests, "post", return_value=_response(payload)) as post:
            completer.complete("p")
        assert post.call_args.kwargs["json"]["temperature"] == 0.7


class TestMockCompleter:
    def test_replays_in_order_then_repeats_last(self, tmp_path):
        (tmp_path / "000.txt").write_text("first")
        (tmp_path / "001.txt").write_text("second")
        completer = MockChatCompleter(tmp_path)
        assert completer.complete("p").text == "first"
        assert completer.complete("p").text == "second"
        assert completer.complete("p").text == "second"

    def test_counts_prompt_and_reply_tokens(self, tmp_path):
        (tmp_path / "000.txt").write_text("a b")
        completer = MockChatCompleter(tmp_path)
        assert completer.complete("one two three").token_count == 5

    def test_incremental_prompt_count_equals_full_count(self, tmp_path, state):
        (tmp_path / "000.txt").write_text("{'0': [0, 1]}")
        completer = MockChatCompleter(tmp_path)
        refined = state
        prompts = ["", "a b", "a bc", "a bcd e", "a bcd e\n\n f", "a bcd e\n\n f\u2003g", "a bcd e\n\n f\u2003g",
                   "x y", "x y ", "x y z", "  x y z", "  x", "  x\ty", "a"]
        for _ in range(3):
            refined = refine_prompt(refined, {0: ([0, 1], 1.0)}, {0: ([0, 3], 2.0)}, {0: 2.0})
            prompts.append(build_prompt(refined))
        prompts.append(build_prompt(state))
        for prompt in prompts:
            expected = count_tokens(prompt) + count_tokens("{'0': [0, 1]}")
            assert completer.complete(prompt).token_count == expected, repr(prompt)

    def test_keeps_no_copy_of_the_prompt(self, tmp_path):
        (tmp_path / "000.txt").write_text("ok")
        completer = MockChatCompleter(tmp_path)
        prompt = "route " * 100_000
        tracemalloc.start()
        try:
            completer.complete(prompt)
            assert completer.complete(prompt + "more").token_count == count_tokens(prompt + "more ok")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10_000, f"{held} bytes held after a {len(prompt)}-char prompt"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(LlmError, match="no .txt"):
            MockChatCompleter(tmp_path)

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecoach.graph import INF, Edge, GraphError, RoadGraph, load_graph
from routecoach.fixtures import grid_graph, hilly_graph, write_graph
from routecoach.trajectory import dtw_distance


def brute_force_paths(graph, a, b, max_len=12):
    """All simple paths a -> b with their summed lengths, by DFS."""
    results = []

    def walk(node, path, cost):
        if node == b:
            results.append((cost, list(path)))
            return
        if len(path) > max_len:
            return
        for e in graph.out_edges(node):
            if e.dst not in path:
                path.append(e.dst)
                walk(e.dst, path, cost + e.length)
                path.pop()

    walk(a, [a], 0.0)
    return results


def test_minimal_graph():
    g = load_graph(json.dumps({
        "nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"from": 0, "to": 1, "length": 5.0}],
    }))
    assert g.node_count == 2
    assert g.max_out_degree == 1
    assert g.out_edges(0) == (Edge(0, 1, 5.0),)


def test_dangling_endpoint_named():
    doc = {"nodes": [{"id": 0, "x": 0, "y": 0}],
           "edges": [{"from": 0, "to": 99, "length": 1.0}]}
    with pytest.raises(GraphError, match="99"):
        load_graph(json.dumps(doc))


def test_non_positive_length_named():
    for length in (0.0, -1.0, float("nan"), float("inf")):
        doc = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
               "edges": [{"from": 0, "to": 1, "length": length}]}
        with pytest.raises(GraphError, match="0->1"):
            load_graph(json.dumps(doc))
        with pytest.raises(GraphError, match="positive and finite"):
            RoadGraph({0: (0, 0), 1: (1, 0)}, [Edge(0, 1, length)])


@pytest.mark.parametrize("xy", [(float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 1.0)])
def test_non_finite_coordinates_named(xy):
    doc = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": xy[0], "y": xy[1]}],
           "edges": [{"from": 0, "to": 1, "length": 1.0}]}
    with pytest.raises(GraphError, match="junction 1 has non-finite coordinates"):
        load_graph(json.dumps(doc))
    with pytest.raises(GraphError, match="junction 1 has non-finite coordinates"):
        RoadGraph({0: (0.0, 0.0), 1: xy}, [Edge(0, 1, 1.0)])


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_scale_whose_square_overflows_rejected(scale):
    with pytest.raises(GraphError, match="graph too large: its summed edge length"):
        RoadGraph({0: (0.0, 0.0), 1: (scale, scale)}, [Edge(0, 1, scale), Edge(1, 0, scale)])


@pytest.mark.parametrize("xy", [(1e200, 0.0), (0.0, -1e200), (1e308, 1.0)])
def test_coordinate_span_whose_square_overflows_rejected(xy):
    with pytest.raises(GraphError, match="graph too large: its [xy] span"):
        RoadGraph({0: (0.0, 0.0), 1: xy}, [Edge(0, 1, 1.0)])


def test_diagonal_whose_square_overflows_rejected():
    # each span squares to a finite 1.69e308, but DTW's local cost adds the two squares
    with pytest.raises(GraphError, match="graph too large: its diagonal"):
        RoadGraph({0: (0.0, 0.0), 1: (1.3e154, 1.3e154)}, [Edge(0, 1, 1.0)])
    graph = RoadGraph({0: (0.0, 0.0), 1: (9e153, 9e153)}, [Edge(0, 1, 1.0)])
    with np.errstate(over="raise"):
        distance = dtw_distance([graph.nodes[0]], [graph.nodes[1]] * 2)
    assert distance == pytest.approx(2.5456e154, rel=1e-4)


def test_bad_json_and_sparse_ids():
    with pytest.raises(GraphError, match="JSON"):
        load_graph("not json {")
    node, edge = {"id": 0, "x": 0, "y": 0.5}, {"from": 0, "to": 1, "length": 1}
    for nodes, edges, message in [
        (None, [], "'nodes' must be a list"), (5, [], "'nodes' must be a list"),
        ([node], None, "'edges' must be a list"), ([node], {"0": edge}, "'edges' must be a list"),
        *(([{**node, "id": v}], [], "bad node entry") for v in (1.7, 0.0, True, "0", None)),
        *(([{**node, k: v}], [], "bad node entry") for k in ("x", "y") for v in (True, "0", None, [0])),
        ([{"id": 0, "x": 0}], [], "bad node entry"), ([[0, 0, 0]], [], "bad node entry"),
        *(([node, {**node, "id": 1}], [{**edge, k: v}], "bad edge entry")
          for k in ("from", "to") for v in (1.0, 0.5, False, "1", None)),
        *(([node, {**node, "id": 1}], [{**edge, "length": v}], "bad edge entry") for v in (True, "1", None)),
        ([node, {**node, "id": 1}], [[0, 1, 1.0]], "bad edge entry"),
    ]:
        with pytest.raises(GraphError, match=message):
            load_graph(json.dumps({"nodes": nodes, "edges": edges}))
    doc = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}], "edges": []}
    with pytest.raises(GraphError, match="dense"):
        load_graph(json.dumps(doc))


def test_repeated_junction_id_rejected():
    doc = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}, {"id": 1, "x": 5, "y": 5}],
           "edges": [{"from": 0, "to": 1, "length": 1.0}]}
    with pytest.raises(GraphError, match="junction 1 listed more than once"):
        load_graph(json.dumps(doc))


def test_sparse_junction_ids_rejected_at_construction():
    with pytest.raises(GraphError, match="dense"):
        RoadGraph({0: (0, 0), 5: (1, 0)}, [Edge(0, 5, 1.0)])
    with pytest.raises(GraphError, match="dense"):
        RoadGraph({1: (0, 0), 2: (1, 0)}, [])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        RoadGraph({0: (0, 0), 1: (1, 0)}, [Edge(0, 1, 1.0), Edge(0, 1, 2.0)])


def test_grid_fixture_counts(grid5):
    # 5x5 grid: 25 junctions, 2*(2*5*4) = 80 directed edges, m = 4
    assert grid5.node_count == 25
    assert len(grid5.edges) == 80
    assert grid5.max_out_degree == 4


def test_adjacency_ordered_by_destination(grid5, hilly):
    for g in (grid5, hilly):
        for j in g.nodes:
            dsts = [e.dst for e in g.out_edges(j)]
            assert dsts == sorted(dsts)


def test_slot_inverts_the_out_edge_order(grid5, hilly):
    for g in (grid5, hilly):
        for e in g.edges:
            assert g.out_edges(e.src)[g.slot(e.src, e.dst)].dst == e.dst
        assert g.slot(0, 0) is None
        assert g.slot(g.node_count, 0) is None and g.slot(0, g.node_count) is None
        assert g.slot([0], 1) is None and g.slot(0, [1]) is None
    assert grid5.slot(0, 24) is None
    links = {(e.src, e.dst) for e in hilly.edges}
    one_way = [(u, v) for u, v in links if (v, u) not in links]
    assert one_way
    for u, v in one_way:
        assert hilly.slot(v, u) is None


def test_roundtrip_json(grid5):
    again = load_graph(grid5.to_json())
    assert again.nodes == grid5.nodes
    assert again.edges == grid5.edges


def test_write_graph(tmp_path, hilly):
    path = write_graph(hilly, tmp_path / "hilly.json")
    assert load_graph(path.read_text()).node_count == hilly.node_count


def test_shortest_path_line():
    g = RoadGraph({0: (0, 0), 1: (1, 0), 2: (2, 0)}, [Edge(0, 1, 1.0), Edge(1, 2, 1.0)])
    assert g.shortest_path(0, 2) == (2.0, [0, 1, 2])
    assert g.shortest_path(2, 2) == (0.0, [2])
    assert g.shortest_path(2, 0) is None


def test_shortest_path_grid_corner_vs_bruteforce(grid5):
    cost, path = grid5.shortest_path(0, 24)
    best = min(brute_force_paths(grid5, 0, 24, max_len=9))
    assert cost == pytest.approx(8.0)
    assert (cost, path) == best  # lexicographic tie-break matches brute force


def test_shortest_path_lexicographic_tiebreak(grid5):
    # many equal-cost monotone routes 0 -> 12; smallest junction sequence wins
    cost, path = grid5.shortest_path(0, 12)
    equal = [p for c, p in brute_force_paths(grid5, 0, 12, max_len=5) if c == cost]
    assert path == min(equal)


def test_shortest_path_hilly_vs_bruteforce(hilly):
    for a, b in itertools.product(hilly.nodes, repeat=2):
        got = hilly.shortest_path(a, b)
        enumerated = brute_force_paths(hilly, a, b)
        if got is None:
            assert not enumerated
        else:
            assert got == min(enumerated)


def test_distances_cached_and_correct(grid5):
    dist = grid5.distances_to(24)
    assert dist[0] == pytest.approx(8.0)
    assert dist[24] == 0.0
    assert grid5.distances_to(24) is dist  # cached


@pytest.mark.parametrize("name", ["hilly", "line"])
def test_distances_from_agrees_with_distances_to_and_shortest_path(name, request):
    # both graphs have one-way links, so the forward and reverse searches differ;
    # on line the way back is missing, so some pairs are unreachable
    graph = request.getfixturevalue(name)
    for a, b in itertools.product(graph.nodes, repeat=2):
        forward = graph.distances_from(a)[b]
        path = graph.shortest_path(a, b)
        if path is None:
            assert forward == INF and graph.distances_to(b)[a] == INF
        else:
            assert forward == pytest.approx(graph.distances_to(b)[a])
            assert forward == pytest.approx(path[0])


def test_diameter(grid5, hilly):
    assert grid5.diameter == pytest.approx(8.0)
    pairwise = [
        hilly.shortest_path(a, b)[0]
        for a, b in itertools.product(hilly.nodes, repeat=2)
        if hilly.shortest_path(a, b) is not None
    ]
    assert hilly.diameter == pytest.approx(max(pairwise))


def test_diameter_caches_no_distance_map():
    graph = grid_graph(10)
    dist = graph.distances_to(42)
    tracemalloc.start()
    try:
        graph.diameter
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 0.1 * 2**20  # caching every destination's map would leave 0.68 MiB
    assert graph.distances_to(42) is dist


def test_k_shortest_paths_loopless_sorted(grid5):
    paths = grid5.k_shortest_paths(0, 12, 8)
    assert len(paths) == 8
    costs = [c for c, _ in paths]
    assert costs == sorted(costs)
    for cost, path in paths:
        assert len(set(path)) == len(path)  # loopless
        assert path[0] == 0 and path[-1] == 12
        total = sum(grid5.edge_between(u, v).length for u, v in zip(path, path[1:]))
        assert total == pytest.approx(cost)
    assert len({tuple(p) for _, p in paths}) == len(paths)


def test_k_shortest_paths_exhaustive(hilly):
    # against full enumeration of simple paths
    enumerated = sorted(brute_force_paths(hilly, 0, 8))
    got = hilly.k_shortest_paths(0, 8, 5)
    assert [(c, p) for c, p in got] == enumerated[:5]


def assert_yen_costs_exact(graph, k):
    """Every pair's ``k`` paths cost their edge lengths added left to right from 0.0, bit for bit,
    and those are the ``k`` cheapest costs of a full enumeration."""
    for a, b in itertools.permutations(graph.nodes, 2):
        got = graph.k_shortest_paths(a, b, k)
        summed = []
        for _, path in got:
            cost = 0.0
            for u, v in zip(path, path[1:]):
                cost += graph.edge_between(u, v).length
            summed.append(cost)
        assert [c for c, _ in got] == summed
        assert summed == sorted(c for c, _ in brute_force_paths(graph, a, b))[:k]


def test_k_shortest_costs_exact_on_hilly(hilly):
    assert_yen_costs_exact(hilly, 8)


@st.composite
def one_way_graphs(draw):
    """Up to 6 junctions, each ordered pair an edge or not (so many are one-way), with non-integer lengths."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and draw(st.booleans())]
    lengths = st.floats(0.1, 10.0).filter(lambda x: not x.is_integer())
    return RoadGraph({j: (float(j), 0.0) for j in range(n)}, [Edge(u, v, draw(lengths)) for u, v in pairs])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(one_way_graphs(), st.integers(1, 6))
def test_k_shortest_costs_exact(graph, k):
    assert_yen_costs_exact(graph, k)


def test_k_shortest_unreachable():
    g = RoadGraph({0: (0, 0), 1: (1, 0)}, [Edge(0, 1, 1.0)])
    assert g.k_shortest_paths(1, 0, 4) == []


def test_route_queries_searched_once_and_not_shared(monkeypatch):
    g = grid_graph(4)
    searches = []
    search = RoadGraph._restricted_shortest

    def counting(self, a, b, *rest):
        searches.append((a, b))
        return search(self, a, b, *rest)

    monkeypatch.setattr(RoadGraph, "_restricted_shortest", counting)
    cost, path = g.shortest_path(0, 15)
    expected = list(path)
    path[0] = 99
    path.append(15)
    assert g.shortest_path(0, 15) == (cost, expected)
    assert len(searches) == 1

    paths = g.k_shortest_paths(0, 15, 4)
    yen_searches = len(searches)
    assert yen_searches > 1 and paths[0] == (cost, expected)
    paths[1][1].clear()
    paths.pop()
    again = g.k_shortest_paths(0, 15, 4)
    assert len(searches) == yen_searches
    assert again == grid_graph(4).k_shortest_paths(0, 15, 4)
    assert len(again) == 4 and all(p for _, p in again)

    line = RoadGraph({0: (0, 0), 1: (1, 0)}, [Edge(0, 1, 1.0)])
    before = len(searches)
    assert line.shortest_path(1, 0) is None and line.shortest_path(1, 0) is None
    assert len(searches) == before + 1

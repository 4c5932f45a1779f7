"""Directed weighted road graphs with planar junction coordinates.

Junction ids are dense integers starting at 0.  Outgoing edges of every
junction are kept in a fixed order (ascending destination id) so that the
i-th outgoing edge is well defined everywhere an action index refers to one.
"""
from __future__ import annotations

import json
from functools import cached_property
from heapq import heappop, heappush
from math import hypot, isfinite
from typing import Iterable, NamedTuple

import numpy as np

INF = float("inf")


class GraphError(ValueError):
    """Invalid graph structure or graph file contents."""


class Edge(NamedTuple):
    src: int
    dst: int
    length: float


class RoadGraph:
    """Immutable directed graph; build once, then treat as read-only.

    ``max_out_degree`` is the ``m`` that sizes action and observation
    vectors for environments running on this graph.  Since nothing can
    change, route answers are cached per query.
    """

    def __init__(self, nodes: dict[int, tuple[float, float]], edges: Iterable[Edge]):
        self.nodes: dict[int, tuple[float, float]] = dict(nodes)
        if sorted(self.nodes) != list(range(len(self.nodes))):
            raise GraphError("junction ids must be dense integers starting at 0")
        for j, xy in self.nodes.items():
            if not all(map(isfinite, xy)):
                raise GraphError(f"junction {j} has non-finite coordinates {xy}")
        self.edges: tuple[Edge, ...] = tuple(Edge(int(e[0]), int(e[1]), float(e[2])) for e in edges)
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.src not in self.nodes:
                raise GraphError(f"edge {e.src}->{e.dst} references missing junction {e.src}")
            if e.dst not in self.nodes:
                raise GraphError(f"edge {e.src}->{e.dst} references missing junction {e.dst}")
            if not 0 < e.length < INF:
                raise GraphError(f"edge {e.src}->{e.dst} has length {e.length}; lengths are positive and finite")
            if (e.src, e.dst) in seen:
                raise GraphError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
        xs, ys = zip(*self.nodes.values()) if self.nodes else ((0.0,), (0.0,))
        # the summed length bounds every path; rewards, value losses and DTW (dx*dx + dy*dy) square these
        dx, dy = max(xs) - min(xs), max(ys) - min(ys)
        scales = {"summed edge length": sum(e.length for e in self.edges), "x span": dx, "y span": dy,
                  "diagonal": hypot(dx, dy)}
        for name, q in scales.items():
            if not isfinite(q * q):
                raise GraphError(f"graph too large: its {name} {q:g} squares past the largest float")
        adjacency: dict[int, list[Edge]] = {j: [] for j in self.nodes}
        for e in self.edges:
            adjacency[e.src].append(e)
        self._adjacency = {j: tuple(sorted(out, key=lambda e: e.dst)) for j, out in adjacency.items()}
        self.max_out_degree = max((len(out) for out in self._adjacency.values()), default=0)
        # every edge turned around, for distances_to; plain tuples, which build faster than Edges
        self._reversed: dict[int, list[tuple[int, int, float]]] = {j: [] for j in self.nodes}
        for e in self.edges:
            self._reversed[e.dst].append((e.dst, e.src, e.length))
        self._dist_cache: dict[int, dict[int, float]] = {}
        self._path_cache: dict[tuple[int, int], tuple[float, tuple[int, ...]] | None] = {}
        self._k_paths_cache: dict[tuple[int, int, int], tuple[tuple[float, tuple[int, ...]], ...]] = {}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def out_edges(self, junction: int) -> tuple[Edge, ...]:
        return self._adjacency[junction]

    def slot(self, src: int, dst: int) -> int | None:
        """The index of edge ``src -> dst`` in ``out_edges(src)``; None when there is no such edge."""
        try:
            return self._slots[src][dst]
        except (KeyError, TypeError):  # no such edge, or an id no junction has: unknown, or unhashable
            return None

    def edge_between(self, src: int, dst: int) -> Edge | None:
        i = self.slot(src, dst)
        return None if i is None else self._adjacency[src][i]

    @cached_property
    def _slots(self) -> dict[int, dict[int, int]]:
        """Each junction's {end junction: slot}, the inverse of its out-edge order; built on first use."""
        return {j: {e.dst: i for i, e in enumerate(out)} for j, out in self._adjacency.items()}

    @cached_property
    def coords(self) -> np.ndarray:
        """The read-only ``(node_count, 2)`` junction coordinates, row ``j`` junction ``j``'s; built on first use."""
        xy = np.array([self.nodes[j] for j in range(self.node_count)], dtype=float).reshape(-1, 2)
        xy.flags.writeable = False
        return xy

    @cached_property
    def out_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(end junctions, lengths) of the outgoing edges, in slot order.

        Both are read-only ``(node_count, max_out_degree)`` arrays; slots
        beyond a junction's out-degree hold -1 and 0.0.  Built on first use.
        """
        shape = (self.node_count, self.max_out_degree)
        dst, length = np.full(shape, -1, dtype=np.int64), np.zeros(shape)
        for j, out in self._adjacency.items():
            dst[j, :len(out)] = [e.dst for e in out]
            length[j, :len(out)] = [e.length for e in out]
        dst.flags.writeable = length.flags.writeable = False
        return dst, length

    # -- shortest paths ----------------------------------------------------

    def shortest_path(self, a: int, b: int) -> tuple[float, list[int]] | None:
        """Exact shortest directed path from ``a`` to ``b`` by summed length.

        Ties in length are broken by lexicographic comparison of the
        junction-id sequence, making the result deterministic.  Returns
        ``None`` when ``b`` is unreachable from ``a``.  Each query is
        searched once; the returned list is the caller's own.
        """
        if (a, b) not in self._path_cache:
            if a not in self.nodes or b not in self.nodes:
                raise GraphError(f"unknown junction in shortest_path({a}, {b})")
            self._path_cache[a, b] = self._restricted_shortest(a, b, set(), set())
        found = self._path_cache[a, b]
        return None if found is None else (found[0], list(found[1]))

    def distances_from(self, src: int) -> dict[int, float]:
        """Shortest-path distance from ``src`` to every junction (inf if unreachable)."""
        if src not in self.nodes:
            raise GraphError(f"unknown junction {src}")
        return self._distances(src, self._adjacency)

    def distances_to(self, dest: int) -> dict[int, float]:
        """Shortest-path distance from every junction to ``dest``.

        Unreachable junctions map to ``inf``.  Cached per destination.
        """
        if dest not in self._dist_cache:
            if dest not in self.nodes:
                raise GraphError(f"unknown junction {dest}")
            self._dist_cache[dest] = self._distances(dest, self._reversed)
        return self._dist_cache[dest]

    def _distances(self, source: int, edges: dict[int, Iterable[tuple[int, int, float]]]) -> dict[int, float]:
        """Dijkstra from ``source`` over each junction's ``(junction, next junction, length)`` edges."""
        dist = {j: INF for j in self.nodes}
        dist[source] = 0.0
        frontier = [(0.0, source)]
        while frontier:
            d, node = heappop(frontier)
            if d > dist[node]:
                continue
            for _, nxt, length in edges[node]:
                nd = d + length
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    heappush(frontier, (nd, nxt))
        return dist

    @cached_property
    def diameter(self) -> float:
        """Largest finite shortest-path distance over all ordered pairs; it adds no map to the cache."""
        best = 0.0
        for dest in self.nodes:
            for d in (self._dist_cache.get(dest) or self._distances(dest, self._reversed)).values():
                if d != INF and d > best:
                    best = d
        return best

    def k_shortest_paths(self, a: int, b: int, k: int) -> list[tuple[float, list[int]]]:
        """Up to ``k`` loopless paths from ``a`` to ``b``, cheapest first.

        Yen's algorithm on top of :meth:`shortest_path`; ordering of
        equal-cost paths is lexicographic, so the result is deterministic.
        Each query is searched once; the returned lists are the caller's own.
        """
        if (a, b, k) not in self._k_paths_cache:
            self._k_paths_cache[a, b, k] = self._yen(a, b, k)
        return [(cost, list(path)) for cost, path in self._k_paths_cache[a, b, k]]

    def _yen(self, a: int, b: int, k: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
        first = self.shortest_path(a, b)
        if first is None:
            return ()
        paths: list[tuple[float, tuple[int, ...]]] = [(first[0], tuple(first[1]))]
        candidates: list[tuple[float, tuple[int, ...]]] = []
        seen = {paths[0][1]}
        while len(paths) < k:
            _, prev_path = paths[-1]
            for i in range(len(prev_path) - 1):
                spur_node = prev_path[i]
                root = prev_path[: i + 1]
                root_cost = 0.0
                for u, v in zip(root, root[1:]):
                    edge = self.edge_between(u, v)
                    assert edge is not None
                    root_cost += edge.length
                banned_edges = set()
                for cost, path in paths:
                    if path[: i + 1] == root:
                        banned_edges.add((path[i], path[i + 1]))
                banned_nodes = set(root[:-1])
                spur = self._restricted_shortest(spur_node, b, banned_nodes, banned_edges)
                if spur is None:
                    continue
                spur_cost, spur_path = spur
                total = root[:-1] + spur_path
                if total not in seen:
                    seen.add(total)
                    heappush(candidates, (root_cost + spur_cost, total))
            if not candidates:
                break
            paths.append(heappop(candidates))
        return tuple(paths)

    def _restricted_shortest(
        self,
        a: int,
        b: int,
        banned_nodes: set[int],
        banned_edges: set[tuple[int, int]],
    ) -> tuple[float, tuple[int, ...]] | None:
        frontier: list[tuple[float, tuple[int, ...]]] = [(0.0, (a,))]
        settled: set[int] = set()
        while frontier:
            dist, path = heappop(frontier)
            node = path[-1]
            if node in settled:
                continue
            settled.add(node)
            if node == b:
                return dist, path
            for e in self._adjacency[node]:
                if e.dst in settled or e.dst in banned_nodes or (e.src, e.dst) in banned_edges:
                    continue
                heappush(frontier, (dist + e.length, path + (e.dst,)))
        return None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "nodes": [{"id": j, "x": x, "y": y} for j, (x, y) in sorted(self.nodes.items())],
            "edges": [{"from": e.src, "to": e.dst, "length": e.length} for e in self.edges],
        }
        return json.dumps(doc, indent=2)


def load_graph(text: str) -> RoadGraph:
    """Parse the JSON graph format into a validated :class:`RoadGraph`.

    Format: ``{"nodes": [{"id", "x", "y"}, ...], "edges": [{"from", "to",
    "length"}, ...]}`` with dense integer ids starting at 0.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphError("graph file must be an object with 'nodes' and 'edges'")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise GraphError(f"'{key}' must be a list, got {doc[key]!r}")
    nodes: dict[int, tuple[float, float]] = {}
    for entry in doc["nodes"]:
        if not (isinstance(entry, dict) and type(entry.get("id")) is int
                and all(_is_number(entry.get(k)) for k in ("x", "y"))):
            raise GraphError(f"bad node entry {entry!r}: 'id' must be an integer, 'x' and 'y' numbers")
        if entry["id"] in nodes:
            raise GraphError(f"junction {entry['id']} listed more than once")
        nodes[entry["id"]] = (float(entry["x"]), float(entry["y"]))
    edges = []
    for entry in doc["edges"]:
        if not (isinstance(entry, dict) and all(type(entry.get(k)) is int for k in ("from", "to"))
                and _is_number(entry.get("length"))):
            raise GraphError(f"bad edge entry {entry!r}: 'from' and 'to' must be integers, 'length' a number")
        edges.append(Edge(entry["from"], entry["to"], float(entry["length"])))
    return RoadGraph(nodes, edges)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return type(value) in (int, float)

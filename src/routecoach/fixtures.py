"""Built-in test maps: a regular N x N grid and a small irregular graph."""
from __future__ import annotations

from pathlib import Path

from .graph import Edge, RoadGraph

# grid 200 (40,000 junctions, 159,200 edges) builds in 0.7 s and adds 86 MB to the process's peak
# RSS; both grow with n squared, so n = 100,000 would ask for 10^10 junctions
MAX_GRID_N = 200


def grid_graph(n: int, edge_length: float = 1.0) -> RoadGraph:
    """N x N grid with bidirectional edges between 4-neighbours.

    Junction ``row * n + col`` sits at ``(col * edge_length, row * edge_length)``.
    A 5x5 grid has 25 junctions, 80 directed edges and max out-degree 4.
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    if n > MAX_GRID_N:
        raise ValueError(f"grid needs n <= {MAX_GRID_N}, got {n}")
    nodes = {r * n + c: (c * edge_length, r * edge_length) for r in range(n) for c in range(n)}
    edges = []
    for r in range(n):
        for c in range(n):
            j = r * n + c
            if c + 1 < n:
                edges.append(Edge(j, j + 1, edge_length))
                edges.append(Edge(j + 1, j, edge_length))
            if r + 1 < n:
                edges.append(Edge(j, j + n, edge_length))
                edges.append(Edge(j + n, j, edge_length))
    return RoadGraph(nodes, edges)


def line_graph(lengths: tuple[float, ...] = (1.0, 1.0)) -> RoadGraph:
    """One-way chain 0 -> 1 -> ... -> len(lengths)."""
    nodes = {i: (float(i), 0.0) for i in range(len(lengths) + 1)}
    edges = [Edge(i, i + 1, l) for i, l in enumerate(lengths)]
    return RoadGraph(nodes, edges)


_HILLY_NODES = {
    0: (0.0, 0.0),
    1: (2.0, 0.5),
    2: (4.5, 0.0),
    3: (0.5, 2.5),
    4: (2.5, 2.0),
    5: (5.0, 2.5),
    6: (1.0, 4.5),
    7: (3.5, 4.0),
    8: (5.5, 5.0),
}

# Lengths exceed straight-line distance where the terrain "climbs"; a few
# links are one-way, so forward and reverse routes genuinely differ.
_HILLY_EDGES = [
    (0, 1, 2.2), (1, 0, 2.2),
    (1, 2, 2.6), (2, 1, 3.1),
    (0, 3, 2.7), (3, 0, 2.7),
    (1, 4, 1.7), (4, 1, 1.7),
    (2, 5, 2.8), (5, 2, 2.6),
    (3, 4, 2.1), (4, 3, 2.4),
    (4, 5, 2.9), (5, 4, 3.3),
    (3, 6, 2.1), (6, 3, 2.1),
    (4, 7, 2.3), (7, 4, 2.3),
    (5, 8, 2.6), (8, 5, 2.6),
    (6, 7, 2.6), (7, 6, 2.6),
    (7, 8, 2.3), (8, 7, 2.5),
    (6, 8, 5.1),
    (2, 4, 2.4),
]


def hilly_graph() -> RoadGraph:
    """Small irregular map with heterogeneous lengths and one-way links."""
    return RoadGraph(_HILLY_NODES, [Edge(*e) for e in _HILLY_EDGES])


def write_graph(graph: RoadGraph, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(graph.to_json())
    return path

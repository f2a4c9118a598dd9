"""Graph-traversal oracles: the original queue-based BFS implementations
behind :mod:`repro.graph.traversal` and :mod:`repro.graph.shortest_paths`."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.graph.graph import Graph


def _reference_bfs_layers(g: Graph, source: int) -> Iterator[list[int]]:
    """Original per-vertex BFS layer generator (oracle)."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    visited = np.zeros(g.n, dtype=bool)
    visited[source] = True
    frontier = [source]
    while frontier:
        yield frontier
        nxt: list[int] = []
        for v in frontier:
            for u in g.neighbors(v):
                if not visited[u]:
                    visited[u] = True
                    nxt.append(int(u))
        frontier = sorted(nxt)


def _reference_bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Original queue-based single-source distances (oracle)."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def _reference_apsp_bfs(g: Graph) -> np.ndarray:
    """Original per-source Python-queue APSP (oracle for tests/equivalence)."""
    dist = np.empty((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        dist[v] = _reference_bfs_distances(g, v)
    return dist

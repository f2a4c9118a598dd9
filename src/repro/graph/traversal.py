"""Breadth-first traversal primitives.

DeepMap's receptive fields (Algorithm 1, lines 15-19) expand a BFS frontier
hop by hop; :func:`bfs_layers` yields the hop structure that
``repro.core.receptive_field`` consumes.

The public functions are vectorized: frontiers are numpy arrays expanded
by ragged CSR gathers (:func:`bfs_layers`, :func:`bfs_distances`) or, for
all sources at once, by level-synchronous adjacency-matrix products
(:func:`bfs_distances_batch`).  The original queue-based implementations
are test oracles in ``tests/oracles/graph.py``; ``tests/equivalence``
asserts the vectorized paths match them bitwise.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "bfs_order",
    "bfs_layers",
    "bfs_distances",
    "bfs_distances_batch",
    "connected_components",
]

#: Above this vertex count the dense (n, n) frontier matmul of
#: :func:`bfs_distances_batch` stops paying for itself; fall back to one
#: vectorized CSR sweep per source.
_DENSE_BATCH_MAX_N = 512


def _frontier_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor ids of every vertex in ``frontier`` (ragged gather)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # Flat positions starts[i] + (0 .. counts[i]-1) for every frontier vertex.
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return indices[base + np.arange(total)]


def bfs_order(g: Graph, source: int) -> list[int]:
    """Vertices reachable from ``source`` in BFS visitation order."""
    return [v for layer in bfs_layers(g, source) for v in layer]


def bfs_layers(g: Graph, source: int) -> Iterator[list[int]]:
    """Yield BFS layers ``[source], one-hop, two-hop, ...`` from ``source``.

    Within a layer, vertices appear in ascending id order (deterministic);
    callers re-rank layers by centrality as the paper prescribes.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    indptr, indices = g.csr
    visited = np.zeros(g.n, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        yield frontier.tolist()
        nbrs = _frontier_neighbors(indptr, indices, frontier)
        nbrs = nbrs[~visited[nbrs]]
        frontier = np.unique(nbrs)
        visited[frontier] = True


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 if unreachable)."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    indptr, indices = g.csr
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nbrs = _frontier_neighbors(indptr, indices, frontier)
        nbrs = nbrs[dist[nbrs] < 0]
        frontier = np.unique(nbrs)
        dist[frontier] = d
    return dist


def bfs_distances_batch(g: Graph, sources: np.ndarray | None = None) -> np.ndarray:
    """Hop distances from many sources at once.

    Returns an ``(s, n)`` integer matrix (``s = len(sources)``, all
    vertices when ``sources`` is ``None``) with -1 marking unreachable
    pairs.  Small graphs run one level-synchronous expansion for *all*
    sources simultaneously — each BFS level is a single dense
    frontier-matrix x adjacency-matrix product — which is what makes
    batched receptive-field assembly and APSP fast at benchmark scale.
    Large graphs fall back to one CSR frontier sweep per source.
    """
    n = g.n
    if sources is None:
        src = np.arange(n, dtype=np.int64)
    else:
        src = np.asarray(sources, dtype=np.int64)
        if src.size and (src.min() < 0 or src.max() >= n):
            raise ValueError(f"sources out of range for n={n}")
    s = src.shape[0]
    if n == 0 or s == 0:
        return np.full((s, n), -1, dtype=np.int64)
    if n > _DENSE_BATCH_MAX_N:
        return np.stack([bfs_distances(g, int(v)) for v in src])
    adj = g.adjacency_matrix(dtype=np.float64)
    dist = np.full((s, n), -1, dtype=np.int64)
    dist[np.arange(s), src] = 0
    visited = np.zeros((s, n), dtype=bool)
    visited[np.arange(s), src] = True
    frontier = visited.copy()
    d = 0
    while True:
        d += 1
        reached = (frontier.astype(np.float64) @ adj) > 0.0
        new = reached & ~visited
        if not new.any():
            break
        dist[new] = d
        visited |= new
        frontier = new
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = np.zeros(g.n, dtype=bool)
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue: deque[int] = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
        comps.append(sorted(comp))
    return comps

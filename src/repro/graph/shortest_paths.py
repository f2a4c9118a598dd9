"""All-pairs shortest path distances.

The shortest-path kernel (Borgwardt & Kriegel 2005) reduces each graph to
its shortest-path distance matrix.  The paper cites Floyd-Warshall
(O(n^3)); for the unweighted benchmark graphs batched BFS gives identical
results faster, so both are provided and cross-checked in tests.

:func:`apsp_bfs` runs all sources at once through
:func:`repro.graph.traversal.bfs_distances_batch` (level-synchronous
frontier-matrix expansion); the original one-Python-BFS-per-vertex loop
is a test oracle in ``tests/oracles/graph.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances_batch

__all__ = ["apsp_bfs", "apsp_floyd_warshall", "UNREACHABLE"]

#: Sentinel distance for unreachable vertex pairs.
UNREACHABLE = -1


def apsp_bfs(g: Graph) -> np.ndarray:
    """All-pairs hop distances via batched multi-source BFS.

    Returns an ``(n, n)`` integer matrix with ``UNREACHABLE`` (-1) marking
    disconnected pairs and zeros on the diagonal.
    """
    return bfs_distances_batch(g)


def apsp_floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs hop distances via Floyd-Warshall (reference implementation)."""
    inf = np.iinfo(np.int64).max // 4
    dist = np.full((g.n, g.n), inf, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in g.edges:
        dist[u, v] = 1
        dist[v, u] = 1
    for k in range(g.n):
        # Vectorised relaxation over all (i, j) through k.
        via_k = dist[:, k : k + 1] + dist[k : k + 1, :]
        np.minimum(dist, via_k, out=dist)
    dist[dist >= inf // 2] = UNREACHABLE
    return dist

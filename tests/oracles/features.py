"""Vertex-feature oracles: the original per-vertex WL refinement and SP
triplet counting behind :mod:`repro.features.vertex_maps`."""

from __future__ import annotations

import hashlib
from collections import Counter

from repro.features.vertex_maps import VertexCounts
from repro.graph.graph import Graph

from tests.oracles.graph import _reference_apsp_bfs


def _reference_wl_stable_colors(g: Graph, h: int) -> list[list[int]]:
    """Original per-vertex blake2b WL refinement (oracle for tests/equivalence).

    Since the integer radix remap, :func:`wl_stable_colors` produces
    different color *values* than this oracle; the differential tests
    assert *partition equality* per iteration instead of bitwise equality
    (two vertices — in the same or different graphs — share a remapped
    code iff they share a blake2b hash here).  Iteration 0 is still
    compared exactly (raw labels on both sides).
    """
    colors: list[int] = [int(l) for l in g.labels]
    out = [colors]
    for _ in range(h):
        new_colors = []
        for v in range(g.n):
            sig = (colors[v], tuple(sorted(colors[int(u)] for u in g.neighbors(v))))
            digest = hashlib.blake2b(repr(sig).encode(), digest_size=8).digest()
            new_colors.append(int.from_bytes(digest, "big"))
        colors = new_colors
        out.append(colors)
    return out


def _reference_sp_vertex_counts(g: Graph, max_distance: int | None) -> VertexCounts:
    """Original O(n^2) Python-loop SP triplet counting (oracle)."""
    dist = _reference_apsp_bfs(g)
    labels = g.labels
    per_vertex: VertexCounts = []
    for v in range(g.n):
        counter: Counter = Counter()
        dv = dist[v]
        for t in range(g.n):
            d = int(dv[t])
            if t == v or d <= 0:
                continue
            if max_distance is not None and d > max_distance:
                continue
            counter[("sp", int(labels[v]), int(labels[t]), d)] += 1
        per_vertex.append(counter)
    return per_vertex

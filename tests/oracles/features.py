"""Vertex-feature oracles: the original per-vertex WL refinement and SP
triplet counting behind :mod:`repro.features.vertex_maps`, the classic
shared-dictionary WL, and the dense vectorizer and Equation 7 sum behind
:class:`repro.features.vocabulary.FeatureTable`."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.features.vertex_maps import VertexCounts
from repro.features.vocabulary import FeatureVocabulary
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


def _reference_vectorize_rows(vocab, rows) -> np.ndarray:
    """Original dense vectorizer (oracle for ``FeatureTable.dense``):
    one ``(len(rows), m)`` float64 matrix, unknown keys ignored."""
    rows = list(rows)
    mat = np.zeros((len(rows), vocab.size), dtype=np.float64)
    for i, counts in enumerate(rows):
        for key, value in counts.items():
            if key in vocab:
                mat[i, vocab.index(key)] = value
    return mat


def _reference_sum_vertex_maps(matrices, m: int) -> np.ndarray:
    """Original Equation 7 over dense per-graph vertex matrices (oracle
    for ``FeatureTable.segment_sums``); a graph with no vertices maps to
    zeros."""
    return np.stack([x.sum(axis=0) if x.size else np.zeros(m) for x in matrices])


def _reference_feature_matrices(graphs: list[Graph], extractor):
    """Dense ``(g.n, m)`` vertex matrices per graph plus the vocabulary:
    what ``extract_vertex_feature_matrices`` returned before the sparse
    table, built with :func:`_reference_vectorize_rows`."""
    counts = extractor.extract(graphs)
    vocab = FeatureVocabulary.from_counts(counts)
    return [_reference_vectorize_rows(vocab, vc) for vc in counts], vocab


def _reference_wl_joint_refinement(graphs: list[Graph], h: int) -> list[list[np.ndarray]]:
    """Classic shared-dictionary WL refinement (oracle for the stable
    colors' partitions).

    Returns ``colorings[i][g]`` = color array of graph ``g`` at iteration
    ``i`` (``0 <= i <= h``), with colors drawn from one shared alphabet per
    iteration.  Signature compression sorts the union of signatures so the
    ids are independent of both vertex order and graph order.
    """
    # Iteration 0: compress raw labels over the union alphabet.
    all_labels = sorted({int(l) for g in graphs for l in g.labels})
    base = {lab: i for i, lab in enumerate(all_labels)}
    current = [np.array([base[int(l)] for l in g.labels], dtype=np.int64) for g in graphs]
    colorings = [current]
    for _ in range(h):
        signatures: list[list[tuple]] = []
        union: set[tuple] = set()
        for g, colors in zip(graphs, current):
            sigs = []
            for v in range(g.n):
                sig = (int(colors[v]), tuple(sorted(int(colors[u]) for u in g.neighbors(v))))
                sigs.append(sig)
                union.add(sig)
            signatures.append(sigs)
        mapping = {sig: i for i, sig in enumerate(sorted(union))}
        current = [
            np.array([mapping[s] for s in sigs], dtype=np.int64) for sigs in signatures
        ]
        colorings.append(current)
    return colorings


def graph_matrices(table, graphs: list[Graph]) -> list[np.ndarray]:
    """Split a vertex feature table into one dense ``(g.n, m)`` matrix
    per graph, through ``FeatureTable.dense``."""
    bounds = np.cumsum([0] + [g.n for g in graphs])
    return [table.dense(np.arange(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _reference_one_hot_label_features(graphs: list[Graph], vocabulary=None):
    """Original int-keyed one-hot label matrices of the GNN baselines
    (oracle for ``OneHotLabelFeatures`` through the shared vectorizer)."""
    if vocabulary is None:
        vocabulary = FeatureVocabulary(int(l) for g in graphs for l in g.labels)
    matrices = []
    for g in graphs:
        mat = np.zeros((g.n, vocabulary.size), dtype=np.float64)
        for v in range(g.n):
            key = int(g.labels[v])
            if key in vocabulary:
                mat[v, vocabulary.index(key)] = 1.0
        matrices.append(mat)
    return matrices, vocabulary

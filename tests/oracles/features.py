"""Vertex-feature oracles: the original per-vertex WL refinement and SP
triplet counting behind :mod:`repro.features.vertex_maps`, the
``Counter``-producing extractor bodies and the dict-walking vocabulary
behind :class:`repro.features.vocabulary.VertexCounts`, the classic
shared-dictionary WL, and the dense vectorizer and Equation 7 sum behind
:class:`repro.features.vocabulary.FeatureTable`."""

from __future__ import annotations

import ast
import hashlib
from collections import Counter

import numpy as np

from repro.features import (
    GraphletVertexFeatures,
    LabeledWalkVertexFeatures,
    OneHotLabelFeatures,
    PathPatternVertexFeatures,
    ReturnProbabilityVertexFeatures,
    ShortestPathVertexFeatures,
    WLVertexFeatures,
    wl_stable_colors,
    wl_stable_colors_many,
)
from repro.features.vocabulary import FeatureTable, FeatureVocabulary, VertexCounts
from repro.graph.graph import Graph
from repro.graph.graphlets import count_graphlets_per_vertex
from repro.graph.shortest_paths import apsp_bfs
from repro.kernels.retgk import return_probability_features
from repro.utils.rng import derive_rng

from tests.oracles.graph import _reference_apsp_bfs

Counters = list[Counter]  # one Counter per vertex of a graph


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


def _reference_sp_vertex_counts(g: Graph, max_distance: int | None) -> Counters:
    """Original O(n^2) Python-loop SP triplet counting (oracle)."""
    dist = _reference_apsp_bfs(g)
    labels = g.labels
    per_vertex: Counters = []
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
    index = {key: i for i, key in enumerate(vocab.keys())}
    mat = np.zeros((len(rows), vocab.size), dtype=np.float64)
    for i, counts in enumerate(rows):
        for key, value in counts.items():
            if repr(key) in index:
                mat[i, index[repr(key)]] = value
    return mat


def _reference_sum_vertex_maps(matrices, m: int) -> np.ndarray:
    """Original Equation 7 over dense per-graph vertex matrices (oracle
    for ``FeatureTable.segment_sums``); a graph with no vertices maps to
    zeros."""
    return np.stack([x.sum(axis=0) if x.size else np.zeros(m) for x in matrices])


def _reference_vertex_counts(extractor, graphs: list[Graph]) -> list[Counters]:
    """The ``Counter``-producing ``extract`` bodies of the seven built-in
    extractors (oracle for :class:`VertexCounts`): per graph, one
    ``Counter`` per vertex, keys in the order each row lists them."""
    if isinstance(extractor, GraphletVertexFeatures):
        out = []
        for g in graphs:
            rng = derive_rng(
                extractor.seed, str(g.n).encode(), g.edges.tobytes(), g.labels.tobytes()
            )
            hists = count_graphlets_per_vertex(g, extractor.k, extractor.samples, rng)
            out.append([Counter({("glet",) + key: c for key, c in h.items()}) for h in hists])
        return out
    if isinstance(extractor, ShortestPathVertexFeatures):
        return [_reference_sp_counters(g, extractor.max_distance) for g in graphs]
    if isinstance(extractor, WLVertexFeatures):
        return [
            [
                Counter(dict.fromkeys([("wl", it, c) for it, c in enumerate(colors)], 1))
                for colors in zip(*colorings)
            ]
            for colorings in wl_stable_colors_many(graphs, extractor.h)
        ]
    if isinstance(extractor, OneHotLabelFeatures):
        return [[Counter({("label", int(l)): 1}) for l in g.labels] for g in graphs]
    if isinstance(extractor, PathPatternVertexFeatures):
        return [_reference_path_counters(extractor, g) for g in graphs]
    if isinstance(extractor, LabeledWalkVertexFeatures):
        return [_reference_walk_counters(g, extractor.length) for g in graphs]
    if isinstance(extractor, ReturnProbabilityVertexFeatures):
        out = []
        for g in graphs:
            rp = return_probability_features(g, extractor.steps)
            per_vertex: Counters = []
            for v in range(g.n):
                counter: Counter = Counter()
                for s in range(extractor.steps):
                    level = min(int(rp[v, s] * extractor.bins), extractor.bins - 1)
                    counter[("rp", s + 1, level)] += 1
                per_vertex.append(counter)
            out.append(per_vertex)
        return out
    raise TypeError(f"no Counter oracle for {type(extractor).__name__}")


def _reference_sp_counters(g: Graph, max_distance: int | None) -> Counters:
    """Per-graph ``np.unique`` SP triplet binning into ``Counter`` objects
    (rows list targets by label, then distance)."""
    per_vertex: Counters = [Counter() for _ in range(g.n)]
    if g.n == 0:
        return per_vertex
    dist = apsp_bfs(g)
    labels = g.labels
    valid = dist >= 1
    if max_distance is not None:
        valid &= dist <= max_distance
    if not valid.any():
        return per_vertex
    v_idx, t_idx = np.nonzero(valid)
    d = dist[v_idx, t_idx]
    n_labels = int(labels.max()) + 1
    n_dist = int(d.max()) + 1
    codes = (v_idx * n_labels + labels[t_idx]) * n_dist + d
    uniq, counts = np.unique(codes, return_counts=True)
    d_u = uniq % n_dist
    rest = uniq // n_dist
    label_list = labels.tolist()
    for v, l_t, dv, c in zip(
        (rest // n_labels).tolist(), (rest % n_labels).tolist(), d_u.tolist(), counts.tolist()
    ):
        per_vertex[v][("sp", label_list[v], l_t, dv)] = c
    return per_vertex


def _reference_path_counters(extractor, g: Graph) -> Counters:
    """Truncated-BFS root-to-node path patterns, one ``Counter`` per root."""
    if extractor.super_path_h > 0:
        colors = wl_stable_colors(g, extractor.super_path_h)[-1]
    else:
        colors = [int(l) for l in g.labels]
    per_vertex: Counters = []
    for root in range(g.n):
        counter: Counter = Counter()
        counter[("path", (colors[root],))] += 1
        visited = {root}
        queue = [(root, (colors[root],), 0)]
        while queue:
            v, path, depth = queue.pop(0)
            if depth == extractor.depth:
                continue
            for u in g.neighbors(v):
                ui = int(u)
                if ui in visited:
                    continue
                visited.add(ui)
                counter[("path", path + (colors[ui],))] += 1
                queue.append((ui, path + (colors[ui],), depth + 1))
        per_vertex.append(counter)
    return per_vertex


def _reference_walk_counters(g: Graph, length: int) -> Counters:
    """Labeled walks of length 1..``length`` by endpoint DP, one
    ``Counter`` per start vertex."""
    labels = [int(l) for l in g.labels]
    per_vertex: Counters = []
    for start in range(g.n):
        counter: Counter = Counter()
        current: dict[int, dict[tuple, int]] = {start: {(labels[start],): 1}}
        for _ in range(length):
            nxt: dict[int, dict[tuple, int]] = {}
            for v, sequences in current.items():
                for u in g.neighbors(v):
                    ui = int(u)
                    bucket = nxt.setdefault(ui, {})
                    for seq, count in sequences.items():
                        key = seq + (labels[ui],)
                        bucket[key] = bucket.get(key, 0) + count
                        counter[("walk", key)] += count
            current = nxt
        per_vertex.append(counter)
    return per_vertex


def _reference_vocabulary(counts, max_features: int | None = None) -> list:
    """Original dict-walking ``FeatureVocabulary.from_counts``: the keys
    in column order (sorted by ``repr``; with ``max_features``, the most
    frequent first, count ties broken by ``repr``)."""
    totals: dict = {}
    for vertex_counts in counts:
        for counter in vertex_counts:
            for key, value in counter.items():
                totals[key] = totals.get(key, 0) + value
    keys = list(totals)
    if max_features is not None and len(totals) > max_features:
        keys = sorted(totals, key=lambda k: (-totals[k], repr(k)))[:max_features]
    return sorted(set(keys), key=repr)


def _reference_table(keys: list, rows) -> FeatureTable:
    """Original dict-walking ``vectorize_rows``: one CSR row per mapping,
    entries in the mapping's order, keys outside ``keys`` dropped."""
    index = {key: i for i, key in enumerate(keys)}
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for counts in rows:
        for key, value in counts.items():
            col = index.get(key)
            if col is not None:
                indices.append(col)
                values.append(value)
        indptr.append(len(indices))
    return FeatureTable(
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        len(keys),
    )


def counters(counts: VertexCounts, graphs: list[Graph]) -> list[Counters]:
    """``counts`` as one ``Counter`` per vertex per graph, each key parsed
    back from its ``repr`` and rows in their table order — the shape the
    extractors returned before :class:`VertexCounts`."""
    keys = [ast.literal_eval(text) for text in counts.keys.tolist()]
    table = counts.table
    rows = [
        Counter(
            {
                keys[col]: int(value)
                for col, value in zip(
                    table.indices[a:b].tolist(), table.values[a:b].tolist()
                )
            }
        )
        for a, b in zip(table.indptr[:-1].tolist(), table.indptr[1:].tolist())
    ]
    bounds = np.cumsum([0] + [g.n for g in graphs]).tolist()
    return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _reference_feature_matrices(graphs: list[Graph], extractor):
    """Dense ``(g.n, m)`` vertex matrices per graph plus a vocabulary over
    the oracle's keys: what ``extract_vertex_feature_matrices`` returned
    before the sparse table, from the ``Counter`` oracles."""
    counts = _reference_vertex_counts(extractor, graphs)
    keys = _reference_vocabulary(counts)
    tables = [_reference_table(keys, vc) for vc in counts]
    return [t.dense(np.arange(len(t))) for t in tables], FeatureVocabulary(keys)


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
    index = {key: i for i, key in enumerate(vocabulary.keys())}
    matrices = []
    for g in graphs:
        mat = np.zeros((g.n, vocabulary.size), dtype=np.float64)
        for v in range(g.n):
            key = repr(int(g.labels[v]))
            if key in index:
                mat[v, index[key]] = 1.0
        matrices.append(mat)
    return matrices, vocabulary


def extract_counters(extractor, graphs: list[Graph]) -> list[Counters]:
    """``extractor.extract(graphs)`` as per-graph, per-vertex ``Counter``
    objects (see :func:`counters`)."""
    return counters(extractor.extract(graphs), graphs)

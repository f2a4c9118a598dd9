"""Vertex feature maps (Definition 3) for the three substructure families.

Each extractor turns a *dataset* (list of graphs) into per-vertex count
dictionaries over a shared substructure vocabulary:

* :class:`GraphletVertexFeatures`  — DeepMap-GK: for every vertex, sample
  ``q`` connected graphlets of size ``k`` rooted at it and histogram their
  canonical types.
* :class:`ShortestPathVertexFeatures` — DeepMap-SP: for every vertex ``v``,
  count shortest-path triplets ``(l(v), l(t), d(v, t))`` over all targets
  ``t``.  Summing over sources recovers the classic SP kernel feature map
  (each unordered path counted once per orientation).
* :class:`WLVertexFeatures` — DeepMap-WL: for every vertex, one count per
  WL iteration for the vertex's color at that iteration.  Color ids are
  refined *jointly across the dataset* so identical subtree patterns in
  different graphs share a feature column.  Summing over vertices recovers
  the WL subtree kernel feature map (Equation 5).

The module-level helper :func:`extract_vertex_feature_matrices` runs an
extractor, freezes the vocabulary, and returns dense per-graph matrices —
the ``X`` arrays consumed by Algorithm 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro import obs
from repro.features.vocabulary import FeatureVocabulary
from repro.graph.graph import Graph
from repro.graph.graphlets import count_graphlets_per_vertex
from repro.graph.shortest_paths import apsp_bfs
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive

__all__ = [
    "VertexFeatureExtractor",
    "GraphletVertexFeatures",
    "ShortestPathVertexFeatures",
    "WLVertexFeatures",
    "OneHotLabelFeatures",
    "wl_stable_colors",
    "wl_stable_colors_many",
    "cached_vertex_counts",
    "extract_vertex_feature_matrices",
    "graph_feature_maps",
]

VertexCounts = list[Counter]  # one Counter per vertex


class VertexFeatureExtractor(ABC):
    """Extracts per-vertex substructure count dictionaries for a dataset."""

    #: short identifier used in reports ("gk", "sp", "wl")
    name: str = "base"

    @abstractmethod
    def extract(self, graphs: list[Graph]) -> list[VertexCounts]:
        """Per-graph list of per-vertex ``Counter`` feature dictionaries."""

    def cache_params(self) -> dict:
        """Hyperparameters identifying this extractor for cache keys.

        The default exposes every public instance attribute, which is
        exactly the constructor surface for the built-in extractors;
        custom extractors with derived state should override this to
        return only what determines their output.
        """
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and not key.endswith("_")
        }


class GraphletVertexFeatures(VertexFeatureExtractor):
    """Rooted-graphlet sampling features (DeepMap-GK).

    Parameters
    ----------
    k:
        Graphlet size (paper: 5).
    samples:
        Rooted samples per vertex (paper: 20).
    seed:
        Seed for the sampling streams.  Each graph's stream is derived
        from ``seed`` plus the graph's *content* (structure + labels),
        so a graph samples identically wherever it appears — first or
        last in the dataset, in a CV-fold subset, or alone.  This is
        what keeps cache keys stable across fold slicing.
    """

    name = "gk"

    def __init__(self, k: int = 5, samples: int = 20, seed: int | None = 0) -> None:
        if not 1 <= k <= 5:
            raise ValueError(f"graphlet size k must be in 1..5, got {k}")
        check_positive("samples", samples)
        self.k = k
        self.samples = samples
        self.seed = seed

    def extract(self, graphs: list[Graph]) -> list[VertexCounts]:
        out: list[VertexCounts] = []
        for g in graphs:
            rng = derive_rng(
                self.seed,
                str(g.n).encode(),
                g.edges.tobytes(),
                g.labels.tobytes(),
            )
            hists = count_graphlets_per_vertex(g, self.k, self.samples, rng)
            out.append([Counter({("glet",) + key: c for key, c in h.items()}) for h in hists])
        return out


class ShortestPathVertexFeatures(VertexFeatureExtractor):
    """Shortest-path triplet features (DeepMap-SP).

    For vertex ``v`` the feature ``("sp", l(v), l(t), d)`` counts targets
    ``t`` with label ``l(t)`` at hop distance ``d >= 1``.  Unreachable
    pairs contribute nothing.  ``max_distance`` optionally truncates the
    path length (None = unbounded, as in the paper).
    """

    name = "sp"

    def __init__(self, max_distance: int | None = None) -> None:
        if max_distance is not None:
            check_positive("max_distance", max_distance)
        self.max_distance = max_distance

    def extract(self, graphs: list[Graph]) -> list[VertexCounts]:
        return [self._extract_one(g) for g in graphs]

    def _extract_one(self, g: Graph) -> VertexCounts:
        """Vectorized shortest-path triplet binning for one graph.

        The (source, target-label, distance) histogram is one
        ``np.unique`` over integer-encoded triplets instead of the
        reference's O(n^2) Python double loop; Python touches only the
        distinct triplets when materializing the ``Counter`` objects.
        """
        per_vertex: VertexCounts = [Counter() for _ in range(g.n)]
        if g.n == 0:
            return per_vertex
        dist = apsp_bfs(g)
        labels = g.labels
        valid = dist >= 1  # drops the diagonal and unreachable pairs
        if self.max_distance is not None:
            valid &= dist <= self.max_distance
        if not valid.any():
            return per_vertex
        v_idx, t_idx = np.nonzero(valid)
        d = dist[v_idx, t_idx]
        target_label = labels[t_idx]
        # Encode (v, l(t), d) triplets as single integers for one unique().
        n_labels = int(labels.max()) + 1
        n_dist = int(d.max()) + 1
        codes = (v_idx * n_labels + target_label) * n_dist + d
        uniq, counts = np.unique(codes, return_counts=True)
        d_u = uniq % n_dist
        rest = uniq // n_dist
        lt_u = rest % n_labels
        v_u = rest // n_labels
        label_list = labels.tolist()
        for v, l_t, dv, c in zip(
            v_u.tolist(), lt_u.tolist(), d_u.tolist(), counts.tolist()
        ):
            per_vertex[v][("sp", label_list[v], l_t, dv)] = c
        return per_vertex


class WLVertexFeatures(VertexFeatureExtractor):
    """Weisfeiler-Lehman subtree features (DeepMap-WL).

    Vertex ``v`` receives one count for feature ``("wl", i, color_i(v))``
    per refinement iteration ``i = 0 .. h``.  Colors are *content-stable
    64-bit codes* of the recursive (own color, sorted neighbor colors)
    signature (see :func:`wl_stable_colors_many`), so the same subtree
    pattern maps to the same feature key in every graph and every
    dataset — making the extractor inductive: features computed on a
    held-out graph align with a vocabulary built on training graphs.
    """

    name = "wl"

    #: Color-scheme token folded into :func:`repro.cache.extractor_fingerprint`.
    #: The integer radix remap produces different (partition-equivalent)
    #: color values than the original blake2b signature hashing, so cached
    #: ``counts``/``vfm`` payloads written under the old scheme must miss
    #: rather than serve stale color keys.  Bump on any color-value change.
    CACHE_VERSION = "wl-colors/mix64-v2"

    def __init__(self, h: int = 3) -> None:
        if h < 0:
            raise ValueError(f"h must be >= 0, got {h}")
        self.h = h

    def extract(self, graphs: list[Graph]) -> list[VertexCounts]:
        out: list[VertexCounts] = []
        for colorings in wl_stable_colors_many(graphs, self.h):
            # Keys are distinct across iterations (the `it` component), so
            # every count is exactly 1 and dict.fromkeys builds each
            # vertex's Counter in one C call.
            keyed = [
                [("wl", it, c) for c in colors]
                for it, colors in enumerate(colorings)
            ]
            out.append([Counter(dict.fromkeys(ks, 1)) for ks in zip(*keyed)])
        return out


class OneHotLabelFeatures(VertexFeatureExtractor):
    """Plain one-hot vertex-label features.

    Not a substructure map — this is the input PATCHY-SAN/DGCNN/GIN use.
    Provided so the Section 6 ablation can feed DeepMap's CNN the same
    impoverished input and measure what the vertex feature maps add.
    """

    name = "onehot"

    def extract(self, graphs: list[Graph]) -> list[VertexCounts]:
        out: list[VertexCounts] = []
        for g in graphs:
            out.append([Counter({("label", int(g.labels[v])): 1}) for v in range(g.n)])
        return out


def wl_stable_colors(g: Graph, h: int) -> list[list[int]]:
    """WL colors as content-stable 64-bit codes, per iteration 0..h.

    Iteration 0 uses the raw integer labels; iteration ``i`` encodes the
    (own previous color, sorted neighbor previous colors) signature as a
    64-bit integer mix (:func:`_signature_codes`).  The codes are pure
    functions of the signature — no shared dictionary, no dependence on
    the dataset a graph happens to be batched with — so they identify
    subtree patterns across graphs and across separate calls (collisions
    are negligible at 64 bits), which is what keeps the WL extractor
    inductive.
    """
    return wl_stable_colors_many([g], h)[0]


# splitmix64 finalizer constants (Steele, Lea & Flood; same avalanche mix
# used by java.util.SplittableRandom).  All arithmetic is uint64 with
# silent wraparound, which numpy guarantees for *array* operands.
_MIX_SEED = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_SH30, _SH27, _SH31 = np.uint64(30), np.uint64(27), np.uint64(31)
_COL_TWEAK = 0xD1B54A32D192ED03  # column tag multiplier (python int, mod 2^64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 avalanche finalizer, elementwise over uint64 arrays."""
    x = (x ^ (x >> _SH30)) * _MIX_M1
    x = (x ^ (x >> _SH27)) * _MIX_M2
    return x ^ (x >> _SH31)


def _column_tweak(position: int) -> np.uint64:
    """Position tag absorbed with signature column ``position`` (mod 2^64)."""
    return np.uint64((_COL_TWEAK * (position + 1)) & 0xFFFFFFFFFFFFFFFF)


def _signature_codes(
    degs: np.ndarray,
    colors: np.ndarray,
    sorted_nb: np.ndarray,
    seg_start: np.ndarray,
    max_deg: int,
) -> np.ndarray:
    """Content-stable 64-bit code per vertex signature.

    A vertex's signature is the sequence ``[degree, own color, sorted
    neighbor colors]``; it is absorbed element by element into a
    splitmix64 sponge (each element XOR-tagged with its position), and
    the vertex's code is the sponge state after its *own* ``degree + 2``
    elements.  Vertices still absorbing are selected with a degree mask,
    so nothing batch-wide — in particular not the maximum degree of
    whatever dataset the graph is batched with — ever enters a code: a
    vertex codes identically alone or in any batch.  That content
    stability is what makes the colors usable as vocabulary keys across
    separate ``extract`` calls (training vs held-out graphs).

    ``sorted_nb`` holds every vertex's neighbor colors sorted within its
    CSR segment (``seg_start`` offsets); only distinct *states* advance
    distinct codes, so equal signatures get equal codes by construction
    (collisions between different signatures are negligible at 64 bits).
    """
    total = colors.shape[0]
    state = np.full(total, _MIX_SEED, dtype=np.uint64)
    state = _mix64(state ^ _mix64(degs ^ _column_tweak(0)))
    state = _mix64(state ^ _mix64(colors ^ _column_tweak(1)))
    codes = state.copy()  # degree-0 vertices are complete here
    degs_i = degs.astype(np.int64)
    for k in range(max_deg):
        active = degs_i > k
        if not active.any():
            break
        gathered = sorted_nb[seg_start[active] + k]
        state_active = _mix64(state[active] ^ _mix64(gathered ^ _column_tweak(k + 2)))
        state[active] = state_active
        codes[active] = state_active
    return codes


def wl_stable_colors_many(graphs: list[Graph], h: int) -> list[list[list[int]]]:
    """Batched :func:`wl_stable_colors` over a whole dataset.

    Returns one ``[iteration][vertex]`` color table per graph, identical
    to calling :func:`wl_stable_colors` per graph (the colors are pure
    signature codes, so batching cannot couple graphs).  All vertices of
    all graphs share one flat CSR layout: per iteration, neighbor colors
    are gathered and sorted with a single lexsort, then every vertex's
    ``(degree, own color, sorted neighbors)`` signature is relabelled in
    one vectorized integer pass by the splitmix64 sponge of
    :func:`_signature_codes`.  No cryptographic hashing and no Python
    per-signature loop runs here; blake2b survives only at the
    :mod:`repro.cache` key boundary.

    .. note::
       The codes are *partition-equivalent* to — but numerically
       different from — the blake2b hashes of the pre-remap oracle in
       ``tests/oracles/features.py``: per iteration, two vertices share a
       code exactly when the oracle gives them equal hashes
       (``tests/equivalence/test_wl_equiv.py`` pins this).  Downstream
       gram matrices (WL subtree, WL optimal assignment) depend only on
       the partition and are bitwise-unchanged; vocabulary column
       *order* and the golden CNN fixtures changed once, explicitly,
       when the remap landed.
    """
    sizes = [g.n for g in graphs]
    total = sum(sizes)
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    if total == 0:
        return [[[] for _ in range(max(h, 0) + 1)] for _ in graphs]

    # One flat CSR over the disjoint union of all graphs.
    degs = np.concatenate([g.degrees() for g in graphs])
    flat_indices = np.concatenate(
        [g.csr[1] + off for g, off in zip(graphs, bounds[:-1])]
    ).astype(np.int64)
    seg = np.repeat(np.arange(total), degs)
    seg_start = np.concatenate(([0], np.cumsum(degs)[:-1]))
    max_deg = int(degs.max()) if degs.size else 0
    degs_u = degs.astype(np.uint64)

    colors = np.concatenate([g.labels for g in graphs]).astype(np.uint64)
    iterations = [colors]
    for _ in range(h):
        gathered = colors[flat_indices]
        order = np.lexsort((gathered, seg))  # sort neighbor colors per vertex
        sorted_nb = gathered[order]
        colors = _signature_codes(degs_u, colors, sorted_nb, seg_start, max_deg)
        iterations.append(colors)
    return [
        [it[a:b].tolist() for it in iterations]
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def wl_joint_refinement(graphs: list[Graph], h: int) -> list[list[np.ndarray]]:
    """Dataset-wide WL refinement.

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


def cached_vertex_counts(
    extractor: VertexFeatureExtractor,
    graphs: list[Graph],
    cache=None,
) -> list[VertexCounts]:
    """``extractor.extract(graphs)`` memoized through the feature-map cache.

    The key combines the dataset fingerprint (graph structure + labels,
    in order) with the extractor's class and hyperparameters, so any
    change to either recomputes.  ``cache=None`` uses the process-wide
    default (:func:`repro.cache.get_cache`); with no cache configured
    this is exactly ``extractor.extract(graphs)``.
    """
    from repro import cache as cache_mod

    cache = cache if cache is not None else cache_mod.get_cache()
    if cache is None:
        return extractor.extract(graphs)
    key = cache_mod.cache_key(
        "counts",
        cache_mod.dataset_fingerprint(graphs),
        cache_mod.extractor_fingerprint(extractor),
    )
    payload = cache.get(key, namespace="counts")
    if payload is not None:
        return list(payload["counts"][0])
    counts = extractor.extract(graphs)
    boxed = np.empty(1, dtype=object)
    boxed[0] = counts
    cache.put(key, {"counts": boxed}, namespace="counts")
    return counts


def extract_vertex_feature_matrices(
    graphs: list[Graph],
    extractor: VertexFeatureExtractor,
    cache=None,
) -> tuple[list[np.ndarray], FeatureVocabulary]:
    """Run ``extractor`` and embed every vertex in a shared dense space.

    Returns ``(matrices, vocabulary)`` where ``matrices[i]`` has shape
    ``(graphs[i].n, m)`` and ``m = len(vocabulary)``.  When a feature-map
    cache is configured (``cache`` argument or the process default) the
    dense matrices and the vocabulary are memoized by dataset content +
    extractor configuration; a warm hit skips extraction entirely and
    returns bitwise-identical arrays.
    """
    from repro import cache as cache_mod

    cache = cache if cache is not None else cache_mod.get_cache()
    key = None
    if cache is not None:
        key = cache_mod.cache_key(
            "vfm",
            cache_mod.dataset_fingerprint(graphs),
            cache_mod.extractor_fingerprint(extractor),
        )
        payload = cache.get(key, namespace="vfm")
        if payload is not None:
            matrices = [
                payload[f"matrix_{i:05d}"] for i in range(len(graphs))
            ]
            vocab = FeatureVocabulary()
            vocab.add_all(payload["vocab"][0])
            return matrices, vocab.freeze()
    with obs.span("feature_map", extractor=extractor.name, graphs=len(graphs)):
        with obs.span("extract"):
            per_graph_counts = extractor.extract(graphs)
        with obs.span("vocabulary"):
            vocab = FeatureVocabulary.from_counts(per_graph_counts)
        with obs.span("vectorize", m=vocab.size):
            matrices = [vocab.vectorize_rows(vc) for vc in per_graph_counts]
    if cache is not None and key is not None:
        boxed = np.empty(1, dtype=object)
        boxed[0] = vocab.keys()
        payload = {f"matrix_{i:05d}": m for i, m in enumerate(matrices)}
        payload["vocab"] = boxed
        cache.put(key, payload, namespace="vfm")
    return matrices, vocab


def graph_feature_maps(
    graphs: list[Graph],
    extractor: VertexFeatureExtractor,
) -> tuple[np.ndarray, FeatureVocabulary]:
    """Graph-level feature maps via Equation 7 (sum of vertex maps).

    Returns ``(phi, vocabulary)`` with ``phi`` of shape ``(n_graphs, m)``.
    This is exactly the explicit feature map of the corresponding
    R-convolution kernel.
    """
    matrices, vocab = extract_vertex_feature_matrices(graphs, extractor)
    return sum_vertex_maps(matrices, vocab.size), vocab


def sum_vertex_maps(matrices: Iterable[np.ndarray], m: int) -> np.ndarray:
    """Stack one graph feature map per ``(n_i, m)`` vertex-map matrix.

    Each row is the sum of that graph's vertex maps (Equation 7); a graph
    with no vertices maps to zeros.  ``matrices`` may be a generator, so
    only one dense matrix needs to be alive at a time.
    """
    return np.stack([x.sum(axis=0) if x.size else np.zeros(m) for x in matrices])

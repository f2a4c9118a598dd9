"""Algorithm 1: from graphs + vertex feature maps to CNN input tensors.

For each graph, the vertex sequence (sorted by centrality) is padded to
the dataset maximum ``w``; every sequence slot contributes its receptive
field of ``r`` vertex feature-map rows, giving an input of shape
``(w * r, m)`` per graph.  Dummy slots (sequence padding and unfilled
field positions) are all-zero rows, which — combined with the bias-free
convolutions of :mod:`repro.core.architecture` — guarantees they never
contribute to the deep feature map (the paper's dummy-vertex property).

The encode path is *fused*: one shared lexsort over the disjoint union
of all graphs feeds both the alignment sequences and the
receptive-field tie-breaking, and assembly gathers from a single
stacked feature matrix straight into the output tensor — no per-graph
intermediate is re-materialized between stages.  The pre-fusion staged
composition and the per-slot assembly are test oracles in
``tests/oracles/core.py``; ``tests/equivalence/test_pipeline_equiv.py``
pins this path to them bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.alignment import (
    UnionOrder,
    centrality_scores,
    union_vertex_order,
)
from repro.core.receptive_field import DUMMY, all_receptive_fields_many
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = ["DeepMapEncoder", "EncodedDataset"]


@dataclass
class EncodedDataset:
    """The tensors Algorithm 1 hands to the CNN.

    Attributes
    ----------
    tensors:
        ``(n_graphs, w * r, m)`` input array.
    vertex_mask:
        ``(n_graphs, w)`` 1.0 where the sequence slot holds a real vertex.
    w, r, m:
        Sequence length, receptive-field size, feature dimension.
    """

    tensors: np.ndarray
    vertex_mask: np.ndarray
    w: int
    r: int
    m: int


class DeepMapEncoder:
    """Stateful encoder: fixes ``w`` on the training set, reuses it later.

    Parameters
    ----------
    r:
        Receptive-field size (paper sweeps 1..10, Fig. 5).
    ordering:
        Vertex-ordering measure (paper: "eigenvector").
    w:
        Sequence length; ``None`` (default) uses the maximum graph size
        seen in :meth:`fit`/first encode.  Graphs larger than ``w`` keep
        their ``w`` highest-centrality vertices (can only happen for
        held-out graphs larger than any training graph).
    """

    def __init__(
        self, r: int = 5, ordering: str = "eigenvector", w: int | None = None
    ) -> None:
        check_positive("r", r)
        self.r = r
        self.ordering = ordering
        self.w = w

    def fit(self, graphs: list[Graph]) -> "DeepMapEncoder":
        """Fix the sequence length ``w`` from ``graphs``."""
        if not graphs:
            raise ValueError("need at least one graph")
        if self.w is None:
            self.w = max(g.n for g in graphs)
        return self

    def fit_width(self, sizes) -> "DeepMapEncoder":
        """Fix ``w`` from an iterable of graph sizes.

        The streaming fit path sees graphs one shard at a time and
        tracks the running maximum itself; this sets the same ``w``
        :meth:`fit` would have derived from the full list.
        """
        w = max(sizes, default=0)
        if w <= 0:
            raise ValueError("need at least one positive graph size")
        if self.w is None:
            self.w = int(w)
        return self

    def encode_key(
        self, graphs: list[Graph], feature_matrices: list[np.ndarray]
    ) -> str:
        """Content-addressed cache key of :meth:`encode`'s result.

        Exposed so out-of-core consumers (the streaming shard store) can
        re-load a previously encoded shard straight from the cache by
        key — without regenerating the graphs the key was derived from.
        """
        if self.w is None:
            raise ValueError("encoder is not fitted (w is None)")
        from repro import cache as cache_mod

        return cache_mod.cache_key(
            "enc",
            cache_mod.dataset_fingerprint(graphs),
            cache_mod.stable_hash(list(feature_matrices)),
            self.r,
            self.ordering,
            self.w,
        )

    def encode(
        self,
        graphs: list[Graph],
        feature_matrices: list[np.ndarray],
        cache=None,
    ) -> EncodedDataset:
        """Build the ``(n, w*r, m)`` tensor for ``graphs``.

        ``feature_matrices[i]`` must be the ``(graphs[i].n, m)`` vertex
        feature-map matrix from
        :func:`repro.features.extract_vertex_feature_matrices` (or the
        vocabulary-aligned equivalent for held-out graphs).

        When a feature-map cache is available (``cache`` argument or the
        process default), the assembled tensor is memoized by graph
        content, feature-matrix content, and the encoder parameters
        ``(r, ordering, w)``; a warm hit returns bitwise-identical
        arrays without recomputing alignment or receptive fields.
        """
        if self.w is None:
            self.fit(graphs)
        assert self.w is not None
        if len(graphs) != len(feature_matrices):
            raise ValueError("graphs and feature matrices must align")
        if not graphs:
            raise ValueError("need at least one graph")
        m = feature_matrices[0].shape[1]
        n = len(graphs)
        w, r = self.w, self.r
        for gi, (g, feats) in enumerate(zip(graphs, feature_matrices)):
            if feats.shape != (g.n, m):
                raise ValueError(
                    f"feature matrix {gi} has shape {feats.shape}, expected {(g.n, m)}"
                )
        from repro import cache as cache_mod

        cache = cache if cache is not None else cache_mod.get_cache()
        key = None
        if cache is not None:
            key = self.encode_key(graphs, feature_matrices)
            payload = cache.get(key, namespace="enc")
            if payload is not None:
                return EncodedDataset(
                    tensors=payload["tensors"],
                    vertex_mask=payload["vertex_mask"],
                    w=w,
                    r=r,
                    m=m,
                )
        with obs.span("encode", graphs=n, w=w, r=r, m=m):
            # Stage 1: centrality-based vertex alignment (Section 4.2).
            # One lexsort over the disjoint union orders every graph at
            # once; the same UnionOrder feeds stage 2's tie-breaking.
            with obs.span("alignment", ordering=self.ordering):
                all_scores = [centrality_scores(g, self.ordering) for g in graphs]
                union = union_vertex_order(graphs, all_scores)
                sequences = [union.sequence(gi)[:w] for gi in range(n)]
            # Stage 2: BFS receptive fields around every vertex.
            with obs.span("receptive_field", r=r):
                all_fields = all_receptive_fields_many(
                    graphs, r, all_scores, union=union
                )
            # Stage 3: assemble the (n, w*r, m) CNN input tensor.
            with obs.span("assemble"):
                tensors, vertex_mask = _assemble_fused(
                    feature_matrices, sequences, all_fields, union, w, r, m
                )
            obs.counter("graphs_encoded_total").inc(n)
        if cache is not None and key is not None:
            cache.put(
                key,
                {"tensors": tensors, "vertex_mask": vertex_mask},
                namespace="enc",
            )
        return EncodedDataset(tensors=tensors, vertex_mask=vertex_mask, w=w, r=r, m=m)


def _assemble_fused(
    feature_matrices: list[np.ndarray],
    sequences: list[np.ndarray],
    all_fields: list[np.ndarray],
    union: UnionOrder,
    w: int,
    r: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused tensor assembly: flat index computation, streaming placement.

    The (slot, field-position) → source-row mapping for *every* graph is
    computed in two flat fancy gathers over the stacked receptive-field
    table (this is the per-graph work the staged path re-did graph by
    graph).  The float64 rows themselves are then placed one graph at a
    time — a gather from that graph's small feature matrix straight into
    its contiguous destination slice — because the tensor is padded and
    memory-bound: streaming real cells beats any whole-tensor gather
    (padding can double the bytes) and keeps each gather cache-hot.

    Bitwise-equal to the per-graph and per-slot assemblies in
    ``tests/oracles/core.py``: feature rows are copied, never
    recomputed, and dummy cells are exactly zero.
    """
    n = len(feature_matrices)
    tensors = np.zeros((n, w * r, m), dtype=np.float64)
    slots = np.asarray([len(seq) for seq in sequences], dtype=np.int64)
    vertex_mask = (np.arange(w)[None, :] < slots[:, None]).astype(np.float64)
    total_slots = int(slots.sum())
    if total_slots == 0:
        return tensors, vertex_mask
    fields_stack = np.concatenate(all_fields, axis=0)  # (total_vertices, r)
    g_of_slot = np.repeat(np.arange(n), slots)
    vstart = union.starts[g_of_slot]
    sel = fields_stack[vstart + np.concatenate(sequences)]  # (total_slots, r)
    real = sel != DUMMY
    src_local = np.where(real, sel, 0)
    dummy = ~real
    offs = 0
    for gi, feats in enumerate(feature_matrices):
        k = int(slots[gi])
        if k == 0:
            continue
        block = feats[src_local[offs : offs + k]]  # (k, r, m)
        block[dummy[offs : offs + k]] = 0.0
        tensors[gi, : k * r] = block.reshape(k * r, m)
        offs += k
    return tensors, vertex_mask

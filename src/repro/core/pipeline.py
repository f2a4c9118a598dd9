"""Algorithm 1: from graphs + vertex feature maps to CNN input.

For each graph, the vertex sequence (sorted by centrality) is padded to
the dataset maximum ``w``; every sequence slot contributes its receptive
field of ``r`` vertex feature-map rows, giving an input of shape
``(w * r, m)`` per graph.  Dummy slots (sequence padding and unfilled
field positions) are all-zero rows, which — combined with the bias-free
convolutions of :mod:`repro.core.architecture` — guarantees they never
contribute to the deep feature map (the paper's dummy-vertex property).

That input is a gather, so it is never stored: an
:class:`EncodedDataset` holds each vertex feature row once and an
``(n, w * r)`` row-index table into them, and ``take_rows`` builds one
mini-batch's dense input on demand.  One shared lexsort over the
disjoint union of all graphs feeds both the alignment sequences and the
receptive-field tie-breaking.  The staged per-graph encode and the dense
per-slot assembly are test oracles in ``tests/oracles/core.py``;
``tests/equivalence/test_pipeline_equiv.py`` pins ``take_rows`` to them
bitwise.
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
    """What Algorithm 1 hands to the CNN, as a row-index table.

    Attributes
    ----------
    features:
        ``(total_vertices + 1, m)`` float64 vertex feature-map rows of
        every graph, stacked in graph order, plus one trailing all-zero
        row that every dummy cell points at.
    rows:
        ``(n_graphs, w * r)`` intp table: cell ``[gi, slot * r + j]`` is
        the ``features`` row at position ``j`` of the receptive field of
        the vertex in ``slot``.
    slots:
        ``(n_graphs, w)`` int64 slot -> vertex table: the local vertex id
        each sequence slot holds (centrality order), ``DUMMY`` (-1) for
        padding.  Every consumer that maps slot outputs back to vertices
        reads this table instead of re-ordering the graph.
    w, r, m:
        Sequence length, receptive-field size, feature dimension.
    """

    features: np.ndarray
    rows: np.ndarray
    slots: np.ndarray
    w: int
    r: int
    m: int

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the dense CNN input, ``(n_graphs, w * r, m)``."""
        return (self.rows.shape[0], self.w * self.r, self.m)

    def take_rows(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(len(idx), w * r, m)`` CNN input of graphs ``idx``."""
        return self.features[self.rows[idx]]

    @property
    def vertex_mask(self) -> np.ndarray:
        """``(n_graphs, w)`` 1.0 where the sequence slot holds a real vertex."""
        return (self.slots != DUMMY).astype(np.float64)

    def to_vertices(self, values: np.ndarray, graphs: list[Graph]) -> list[np.ndarray]:
        """Re-index per-slot ``values[gi, slot, ...]`` to per-vertex arrays.

        Returns one ``(graphs[gi].n, ...)`` array per graph whose row
        ``v`` is the value at vertex ``v``'s slot; vertices beyond ``w``
        (held-out graphs larger than every training graph) stay zero.
        """
        out: list[np.ndarray] = []
        for gi, g in enumerate(graphs):
            row = self.slots[gi]
            real = row != DUMMY
            per_vertex = np.zeros((g.n,) + values.shape[2:], dtype=values.dtype)
            per_vertex[row[real]] = values[gi, real]
            out.append(per_vertex)
        return out


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

    def cached(self, key: str, cache) -> EncodedDataset | None:
        """The encoding ``cache`` holds under ``key``, or ``None``.

        A payload without ``rows`` predates the row-index table (it held
        the dense tensor): it counts as a miss, so :meth:`encode`
        recomputes and overwrites it under the same key.
        """
        payload = cache.get(key, namespace="enc")
        if payload is None or "rows" not in payload:
            return None
        m = payload["features"].shape[1]
        return EncodedDataset(**payload, w=self.w, r=self.r, m=m)

    def encode(
        self,
        graphs: list[Graph],
        feature_matrices: list[np.ndarray],
        cache=None,
    ) -> EncodedDataset:
        """Encode ``graphs`` as a row-index table over their feature rows.

        ``feature_matrices[i]`` must be the ``(graphs[i].n, m)`` vertex
        feature-map matrix from
        :func:`repro.features.extract_vertex_feature_matrices` (or the
        vocabulary-aligned equivalent for held-out graphs).

        When a feature-map cache is available (``cache`` argument or the
        process default), the encoding is memoized by graph content,
        feature-matrix content, and the encoder parameters
        ``(r, ordering, w)``; a warm hit returns bitwise-identical arrays
        without recomputing alignment or receptive fields.
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
            hit = self.cached(key, cache)
            if hit is not None:
                return hit
        with obs.span("encode", graphs=n, w=w, r=r, m=m):
            # Stage 1: centrality-based vertex alignment (Section 4.2).
            # One lexsort over the disjoint union orders every graph at
            # once; the same UnionOrder feeds stage 2's tie-breaking.
            with obs.span("alignment", ordering=self.ordering):
                all_scores = [centrality_scores(g, self.ordering) for g in graphs]
                union = union_vertex_order(graphs, all_scores)
                slots = _slot_table(union, w)
            # Stage 2: BFS receptive fields around every vertex.
            with obs.span("receptive_field", r=r):
                all_fields = all_receptive_fields_many(
                    graphs, r, all_scores, union=union
                )
            # Stage 3: stack the feature rows and index every input cell.
            with obs.span("assemble"):
                features = np.concatenate(
                    [*feature_matrices, np.zeros((1, m))], axis=0, dtype=np.float64
                )
                rows = _field_rows(slots, all_fields, union, r, len(features) - 1)
            obs.counter("graphs_encoded_total").inc(n)
        encoded = EncodedDataset(features, rows, slots, w, r, m)
        if cache is not None and key is not None:
            payload = {"features": features, "rows": rows, "slots": slots}
            cache.put(key, payload, namespace="enc")
        return encoded


def _slot_table(union: UnionOrder, w: int) -> np.ndarray:
    """``(n, w)`` slot -> local vertex table: each graph's sequence cut
    to ``w`` and padded with ``DUMMY``."""
    slots = np.full((union.sizes.size, w), DUMMY, dtype=np.int64)
    for gi in range(union.sizes.size):
        sequence = union.sequence(gi)[:w]
        slots[gi, : sequence.size] = sequence
    return slots


def _field_rows(
    slots: np.ndarray,
    all_fields: list[np.ndarray],
    union: UnionOrder,
    r: int,
    zero_row: int,
) -> np.ndarray:
    """``(n, w * r)`` row-index table into the stacked feature rows.

    The (slot, field-position) -> stacked-row mapping for *every* graph
    comes from two flat fancy gathers over the stacked receptive-field
    table; graph ``gi``'s vertex ``v`` is stacked row
    ``union.starts[gi] + v``.  Dummy slots and unfilled field positions
    point at ``zero_row``.
    """
    n, w = slots.shape
    rows = np.full((n, w, r), zero_row, dtype=np.intp)
    real_slot = slots != DUMMY  # real slots are a prefix of each row
    fields_stack = np.concatenate(all_fields, axis=0)  # (total_vertices, r)
    base = union.starts[np.repeat(np.arange(n), real_slot.sum(axis=1))]
    sel = fields_stack[base + slots[real_slot]]  # (total_slots, r)
    rows[real_slot] = np.where(sel != DUMMY, base[:, None] + sel, zero_row)
    return rows.reshape(n, w * r)

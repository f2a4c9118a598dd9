"""Algorithm 1: from graphs + vertex feature maps to CNN input.

For each graph, the vertex sequence (sorted by centrality) is padded to
the dataset maximum ``w``; every sequence slot contributes its receptive
field of ``r`` vertex feature-map rows, giving an input of shape
``(w * r, m)`` per graph.  Dummy slots (sequence padding and unfilled
field positions) are all-zero rows, which — combined with the bias-free
convolutions of :mod:`repro.core.architecture` — guarantees they never
contribute to the deep feature map (the paper's dummy-vertex property).

That input is a gather, so it is never stored: an
:class:`EncodedDataset` holds each vertex feature row once, as one sparse
:class:`~repro.features.vocabulary.FeatureTable`, and an ``(n, w * r)``
row-index table into it; ``take_rows`` builds one mini-batch's dense
input on demand.  One shared lexsort over the
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
from repro.features.vocabulary import FeatureTable
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = ["DeepMapEncoder", "EncodedDataset"]


@dataclass
class EncodedDataset:
    """What Algorithm 1 hands to the CNN, as a row-index table.

    Attributes
    ----------
    features:
        Sparse vertex feature-map rows of every graph, stacked in graph
        order, plus one trailing empty (all-zero) row that every dummy
        cell points at: ``total_vertices + 1`` rows of width ``m``.
    rows:
        ``(n_graphs, w * r)`` intp table: cell ``[gi, slot * r + j]`` is
        the ``features`` row at position ``j`` of the receptive field of
        the vertex in ``slot``.
    slots:
        ``(n_graphs, w)`` int64 slot -> vertex table: the local vertex id
        each sequence slot holds (centrality order), ``DUMMY`` (-1) for
        padding.  Every consumer that maps slot outputs back to vertices
        reads this table instead of re-ordering the graph.
    w, r:
        Sequence length, receptive-field size.
    """

    features: FeatureTable
    rows: np.ndarray
    slots: np.ndarray
    w: int
    r: int

    @property
    def m(self) -> int:
        """Feature dimension."""
        return self.features.m

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the dense CNN input, ``(n_graphs, w * r, m)``."""
        return (self.rows.shape[0], self.w * self.r, self.m)

    def take_rows(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(len(idx), w * r, m)`` CNN input of graphs ``idx``."""
        return self.features.dense(self.rows[idx])

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

    def encode_key(self, graphs: list[Graph], table: FeatureTable) -> str:
        """Content-addressed cache key of :meth:`encode`'s result.

        Hashes the graphs, the feature table's CSR arrays and width, and
        the encoder parameters ``(r, ordering, w)``.  Exposed so
        out-of-core consumers (the streaming shard store) can re-load a
        previously encoded shard straight from the cache by key —
        without regenerating the graphs the key was derived from.
        """
        if self.w is None:
            raise ValueError("encoder is not fitted (w is None)")
        from repro import cache as cache_mod

        return cache_mod.cache_key(
            "enc",
            cache_mod.dataset_fingerprint(graphs),
            cache_mod.stable_hash(
                [table.indptr, table.indices, table.values, table.m]
            ),
            self.r,
            self.ordering,
            self.w,
        )

    def cached(self, key: str, cache) -> EncodedDataset | None:
        """The encoding ``cache`` holds under ``key``, or ``None``."""
        payload = cache.get(key, namespace="enc")
        if payload is None:
            return None
        m = int(payload["m"][0])
        features = FeatureTable(payload["indptr"], payload["indices"], payload["values"], m)
        return EncodedDataset(features, payload["rows"], payload["slots"], self.w, self.r)

    def encode(
        self,
        graphs: list[Graph],
        table: FeatureTable,
        cache=None,
    ) -> EncodedDataset:
        """Encode ``graphs`` as a row-index table over their feature rows.

        ``table`` holds one vertex feature-map row per vertex of every
        graph, stacked in graph order, as returned by
        :func:`repro.features.extract_vertex_feature_matrices` (or
        ``vocabulary.vectorize_rows`` for held-out graphs).

        When a feature-map cache is available (``cache`` argument or the
        process default), the encoding is memoized by graph content,
        feature-table content, and the encoder parameters
        ``(r, ordering, w)``; a warm hit returns bitwise-identical arrays
        without recomputing alignment or receptive fields.
        """
        if self.w is None:
            self.fit(graphs)
        assert self.w is not None
        if not graphs:
            raise ValueError("need at least one graph")
        total = sum(g.n for g in graphs)
        if len(table) != total:
            raise ValueError(
                f"feature table of shape {(len(table), table.m)} does not "
                f"align with the graphs' {total} vertices"
            )
        n = len(graphs)
        w, r, m = self.w, self.r, table.m
        from repro import cache as cache_mod

        cache = cache if cache is not None else cache_mod.get_cache()
        key = None
        if cache is not None:
            key = self.encode_key(graphs, table)
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
            # Stage 3: append the empty row and index every input cell.
            with obs.span("assemble"):
                indptr = np.append(table.indptr, table.indptr[-1])  # empty row
                features = FeatureTable(indptr, table.indices, table.values, m)
                rows = _field_rows(slots, all_fields, union, r, total)
            obs.counter("graphs_encoded_total").inc(n)
        encoded = EncodedDataset(features, rows, slots, w, r)
        if cache is not None and key is not None:
            # Plain arrays only, so a disk hit maps back without a copy.
            payload = {**vars(features), "m": np.array([m])}
            cache.put(key, {**payload, "rows": rows, "slots": slots}, namespace="enc")
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

"""Feature vocabulary and the sparse vertex feature table.

Graph kernels compare *counts of substructures*; across a dataset the set
of distinct substructures (graphlet types, shortest-path triplets, WL
colors) defines the feature space.  :class:`FeatureVocabulary` fixes the
key -> column assignment once so every graph and vertex in a dataset is
embedded in the same space — this is what makes Equation 7 of the paper
(graph map == sum of vertex maps) hold as a literal numpy identity.
:meth:`FeatureVocabulary.from_counts` is the one place a vocabulary is
fitted to extracted substructure counts, and
:meth:`FeatureVocabulary.vectorize_rows` the one place counts become
vocabulary columns: a :class:`FeatureTable`, one compressed sparse row
per vertex.  Both take :class:`VertexCounts`, the same kind of table
over one extract call's own keys (``repr`` strings): plain numpy arrays.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["FeatureTable", "FeatureVocabulary", "VertexCounts"]


@dataclass(frozen=True)
class FeatureTable:
    """Vertex feature-map rows in compressed sparse row (CSR) form.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at columns
    ``indices[indptr[i]:indptr[i + 1]]`` of an ``m``-wide feature space;
    every other entry is zero.  A vertex row has a handful of nonzeros
    among ``m`` columns (WL: one per refinement iteration), so the table
    costs memory per nonzero, not per ``rows x m`` cell.
    """

    indptr: np.ndarray  # (rows + 1,) int64 row offsets
    indices: np.ndarray  # (nnz,) int64 columns
    values: np.ndarray  # (nnz,) float64 counts
    m: int

    def __len__(self) -> int:
        return self.indptr.size - 1

    def dense(self, rows: np.ndarray) -> np.ndarray:
        """Dense ``rows.shape + (m,)`` float64 copy of table rows ``rows``.

        One zero fill plus one scatter of the selected rows' nonzeros;
        rows may repeat (every dummy cell of an encoding names the same
        empty row).
        """
        rows = np.asarray(rows, dtype=np.intp)
        flat = rows.reshape(-1)
        out = np.zeros((flat.size, self.m), dtype=np.float64)
        starts = self.indptr[flat]
        lengths = self.indptr[flat + 1] - starts
        owner = np.repeat(np.arange(flat.size), lengths)
        # Position of each selected nonzero in `indices` / `values`.
        first = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        nz = np.arange(owner.size) + first
        out[owner, self.indices[nz]] = self.values[nz]
        return out.reshape(rows.shape + (self.m,))

    def segment_sums(self, sizes) -> np.ndarray:
        """``(len(sizes), m)`` sums of consecutive blocks of ``sizes`` rows.

        With one block per graph this is Equation 7: a graph's feature
        map is the sum of its vertices' maps, and a graph with no
        vertices maps to zeros.  Each entry accumulates its block's
        values in row order, the order a dense column sum adds them.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        if bounds[-1] != len(self):
            raise ValueError(
                f"sizes cover {bounds[-1]} rows, the table has {len(self)}"
            )
        block = np.repeat(np.arange(sizes.size), np.diff(self.indptr[bounds]))
        sums = np.bincount(
            block * self.m + self.indices,
            weights=self.values,
            minlength=sizes.size * self.m,
        )
        return np.asarray(sums, dtype=np.float64).reshape(sizes.size, self.m)


@dataclass(frozen=True)
class VertexCounts:
    """Per-vertex substructure counts of one ``extract`` call (Definition 3).

    ``table`` has one row per vertex of every extracted graph, in graph
    order; its columns index ``keys``, the ``repr`` strings of the
    call's own distinct substructure keys (a numpy unicode array, in no
    particular order).  Within a row, entries keep the order the
    extractor found the substructures in.
    """

    table: FeatureTable
    keys: np.ndarray  # (table.m,) unicode key reprs

    @classmethod
    def from_entries(cls, owner, n_rows, columns, keys, values=None) -> "VertexCounts":
        """Counts whose entry ``i`` is ``values[i]`` (default 1) of
        ``keys[columns[i]]`` at vertex ``owner[i]``; entries come vertex
        by vertex, each vertex's in the order its row keeps.  ``repr``
        runs once per key."""
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n_rows), out=indptr[1:])
        columns = np.asarray(columns, dtype=np.int64)
        values = np.ones(columns.size) if values is None else np.asarray(values, float)
        table = FeatureTable(indptr, columns, values, len(keys))
        return cls(table, np.array([repr(key) for key in keys], dtype=str))

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[Hashable, float]]) -> "VertexCounts":
        """Counts from one ``{key: count}`` mapping per vertex (the
        extractors whose dynamic programs build per-vertex dicts)."""
        columns: dict = {}
        indptr, indices, values = [0], [], []
        for row in rows:
            indices += [columns.setdefault(key, len(columns)) for key in row]
            values += row.values()
            indptr.append(len(indices))
        owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        return cls.from_entries(owner, len(indptr) - 1, indices, list(columns), values)


class FeatureVocabulary:
    """The feature space: column ``i`` is the ``i``-th smallest key ``repr``,
    so the embedding is independent of graph order within the dataset."""

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._keys = np.unique(np.array([repr(k) for k in keys], dtype=str))

    def __setstate__(self, state: dict) -> None:
        # Vocabularies pickled as a {key: column} dict load as its reprs.
        index = state.get("_index")
        if index is not None:
            ordered = sorted(index, key=index.__getitem__)
            state = {"_keys": np.array([repr(k) for k in ordered], dtype=str)}
        self.__dict__.update(state)

    @classmethod
    def from_counts(
        cls,
        counts: Iterable[VertexCounts],
        max_features: int | None = None,
    ) -> "FeatureVocabulary":
        """Vocabulary over every key of some :class:`VertexCounts`.

        ``counts`` is consumed once, so a streamed pass can feed it
        shard by shard.  With ``max_features``, only the most frequent
        keys (by total count) are kept, count ties broken by key
        ``repr`` so the selection is deterministic.
        """
        if max_features is not None:
            check_positive("max_features", max_features)
        vocab, total = cls(), np.zeros(0)
        for part in counts:
            # Inserted into the sorted keys part by part: a streamed fit
            # holds each distinct key once, not every shard's keys at once.
            keys, inverse = np.unique(part.keys, return_inverse=True)
            part_total = np.bincount(inverse[part.table.indices], part.table.values, keys.size)
            cols, seen = vocab._lookup(keys)
            total[cols[seen]] += part_total[seen]
            # np.insert keeps the target's string width: widen it first.
            wide = vocab._keys.astype(np.result_type(vocab._keys, keys), copy=False)
            vocab._keys = np.insert(wide, cols[~seen], keys[~seen])
            total = np.insert(total, cols[~seen], part_total[~seen])
        if max_features is not None and vocab.size > max_features:
            # A stable sort over repr-sorted keys breaks count ties by repr.
            keep = np.argsort(-total, kind="stable")[:max_features]
            vocab._keys = np.sort(vocab._keys[keep])
        return vocab

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of features ``m``."""
        return self._keys.size

    def __len__(self) -> int:
        return self.size

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key repr's column, and whether this vocabulary has it."""
        cols = np.searchsorted(self._keys, keys)
        known = cols < self.size
        known[known] = self._keys[cols[known]] == keys[known]
        return cols, known

    def keys(self) -> list[str]:
        """All key reprs in column order."""
        return self._keys.tolist()

    # ------------------------------------------------------------------
    def vectorize_rows(self, counts: VertexCounts) -> FeatureTable:
        """``counts.table`` with its columns moved to this vocabulary's.

        Keys absent from the vocabulary are dropped (they correspond to
        substructures never seen at fit time — the standard convention
        for explicit-feature graph kernels applied to held-out graphs).
        Each row keeps its entries' order.
        """
        table = counts.table
        cols, known = self._lookup(counts.keys)
        hit = known[table.indices]
        kept = np.zeros(hit.size + 1, dtype=np.int64)
        np.cumsum(hit, out=kept[1:])
        return FeatureTable(
            kept[table.indptr],
            cols[table.indices[hit]].astype(np.int64, copy=False),
            table.values[hit],
            self.size,
        )

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
numbers: a :class:`FeatureTable`, one compressed sparse row per vertex.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["FeatureTable", "FeatureVocabulary"]


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


class FeatureVocabulary:
    """Bidirectional mapping between feature keys and column indices.

    Keys are assigned indices in sorted (``repr``) order, so the
    embedding is independent of graph order within the dataset.
    """

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._index: dict[Hashable, int] = {
            k: i for i, k in enumerate(sorted(set(keys), key=repr))
        }

    @classmethod
    def from_counts(
        cls,
        counts: Iterable[Iterable[Mapping[Hashable, float]]],
        max_features: int | None = None,
    ) -> "FeatureVocabulary":
        """Vocabulary over every key of per-graph vertex counts.

        ``counts`` yields one list of per-vertex ``{key: count}`` mappings
        per graph; it is consumed once, so a streamed pass can feed it
        shard by shard.  With ``max_features``, only the most frequent
        keys (by total count) are kept, count ties broken by key
        ``repr`` so the selection is deterministic.
        """
        if max_features is not None:
            check_positive("max_features", max_features)
        totals: dict = {}
        for vertex_counts in counts:
            for counter in vertex_counts:
                for key, value in counter.items():
                    totals[key] = totals.get(key, 0) + value
        keys = totals.keys()
        if max_features is not None and len(totals) > max_features:
            keys = sorted(totals, key=lambda k: (-totals[k], repr(k)))
            keys = keys[:max_features]
        return cls(keys)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of features ``m``."""
        return len(self._index)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def index(self, key: Hashable) -> int:
        """Column index of ``key``; raises ``KeyError`` for unknown keys."""
        return self._index[key]

    def keys(self) -> list[Hashable]:
        """All keys in column order."""
        return sorted(self._index, key=self._index.__getitem__)

    # ------------------------------------------------------------------
    def vectorize_rows(self, rows: Iterable[Mapping[Hashable, float]]) -> FeatureTable:
        """Embed an iterable of ``{key: count}`` mappings as a :class:`FeatureTable`.

        Row ``i`` of the table is mapping ``i``.  Keys absent from the
        vocabulary are ignored (they correspond to substructures never
        seen at fit time — the standard convention for explicit-feature
        graph kernels applied to held-out graphs).
        """
        get = self._index.get
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for counts in rows:
            for key, value in counts.items():
                col = get(key)
                if col is not None:
                    indices.append(col)
                    values.append(value)
            indptr.append(len(indices))
        return FeatureTable(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            self.size,
        )

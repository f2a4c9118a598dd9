"""Feature vocabulary: hashable substructure keys -> dense column indices.

Graph kernels compare *counts of substructures*; across a dataset the set
of distinct substructures (graphlet types, shortest-path triplets, WL
colors) defines the feature space.  :class:`FeatureVocabulary` fixes the
key -> column assignment once so every graph and vertex in a dataset is
embedded in the same space — this is what makes Equation 7 of the paper
(graph map == sum of vertex maps) hold as a literal numpy identity.
:meth:`FeatureVocabulary.from_counts` is the one place a vocabulary is
fitted to extracted substructure counts.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["FeatureVocabulary"]


class FeatureVocabulary:
    """Bidirectional mapping between feature keys and dense column indices.

    Keys are assigned indices in sorted order at :meth:`freeze` time so the
    embedding is independent of graph order within the dataset.
    """

    def __init__(self) -> None:
        self._keys: set[Hashable] = set()
        self._index: dict[Hashable, int] | None = None

    @classmethod
    def from_counts(
        cls,
        counts: Iterable[Iterable[Mapping[Hashable, float]]],
        max_features: int | None = None,
    ) -> "FeatureVocabulary":
        """Frozen vocabulary over every key of per-graph vertex counts.

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
        vocab = cls()
        vocab.add_all(keys)
        return vocab.freeze()

    # ------------------------------------------------------------------
    def add(self, key: Hashable) -> None:
        """Register ``key``; only allowed before :meth:`freeze`."""
        if self._index is not None:
            raise RuntimeError("vocabulary is frozen; cannot add new keys")
        self._keys.add(key)

    def add_all(self, keys: Iterable[Hashable]) -> None:
        """Register every key in ``keys``."""
        for key in keys:
            self.add(key)

    def freeze(self) -> "FeatureVocabulary":
        """Fix the key -> index assignment (sorted order). Idempotent."""
        if self._index is None:
            self._index = {k: i for i, k in enumerate(sorted(self._keys, key=repr))}
        return self

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of features ``m`` (requires a frozen vocabulary)."""
        if self._index is None:
            raise RuntimeError("vocabulary must be frozen before use")
        return len(self._index)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: Hashable) -> bool:
        source = self._index if self._index is not None else self._keys
        return key in source

    def index(self, key: Hashable) -> int:
        """Column index of ``key``; raises ``KeyError`` for unknown keys."""
        if self._index is None:
            raise RuntimeError("vocabulary must be frozen before use")
        return self._index[key]

    def keys(self) -> list[Hashable]:
        """All keys in column order."""
        if self._index is None:
            raise RuntimeError("vocabulary must be frozen before use")
        return sorted(self._index, key=self._index.__getitem__)

    # ------------------------------------------------------------------
    def vectorize(self, counts: Mapping[Hashable, float]) -> np.ndarray:
        """Embed one ``{key: count}`` mapping as a dense ``(m,)`` vector.

        Keys absent from the vocabulary are ignored (they correspond to
        substructures never seen at fit time — the standard convention for
        explicit-feature graph kernels applied to held-out graphs).
        """
        vec = np.zeros(self.size, dtype=np.float64)
        if self._index is None:  # pragma: no cover - guarded by .size
            raise RuntimeError("vocabulary must be frozen before use")
        for key, value in counts.items():
            col = self._index.get(key)
            if col is not None:
                vec[col] = value
        return vec

    def vectorize_rows(
        self, rows: Iterable[Mapping[Hashable, float]]
    ) -> np.ndarray:
        """Embed an iterable of count mappings as a dense ``(len, m)`` matrix."""
        rows = list(rows)
        mat = np.zeros((len(rows), self.size), dtype=np.float64)
        for i, counts in enumerate(rows):
            for key, value in counts.items():
                col = self._index.get(key) if self._index else None
                if col is not None:
                    mat[i, col] = value
        return mat

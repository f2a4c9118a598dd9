"""Tests for the feature vocabulary, vertex counts and the sparse feature
table."""

import pickle

import numpy as np
import pytest

from repro.features import FeatureVocabulary, VertexCounts, WLVertexFeatures
from repro.graph import cycle_graph, path_graph


def counts(*rows):
    """:class:`VertexCounts` over per-vertex ``{key: count}`` rows."""
    return VertexCounts.from_dicts(rows)


class TestLifecycle:
    def test_add_then_freeze(self):
        v = FeatureVocabulary(["b", "a"])
        assert v.size == 2

    def test_indices_sorted(self):
        v = FeatureVocabulary(["b", "a", "c"])
        table = v.vectorize_rows(counts({"a": 1}, {"b": 1}, {"c": 1}))
        assert table.indices.tolist() == [0, 1, 2]

    def test_contains(self):
        v = FeatureVocabulary(["x"])
        assert repr("x") in v.keys()
        assert repr("y") not in v.keys()

    def test_keys_in_column_order(self):
        v = FeatureVocabulary(["z", "m", "a"])
        assert v.keys() == ["'a'", "'m'", "'z'"]

    def test_order_independent_of_insertion(self):
        v1 = FeatureVocabulary(["x", "y"])
        v2 = FeatureVocabulary(["y", "x"])
        assert v1.keys() == v2.keys()

    def test_pickled_before_the_keyword_constructor_still_loads(self):
        """A vocabulary pickled when it was built by add/freeze carries a
        ``_keys`` set next to ``_index``; the extra attribute is ignored."""
        v = FeatureVocabulary.__new__(FeatureVocabulary)
        v.__setstate__({"_keys": {"a", "b"}, "_index": {"a": 0, "b": 1}})
        assert v.size == 2 and v.keys() == ["'a'", "'b'"]
        table = v.vectorize_rows(counts({"b": 2}))
        assert table.dense([0]).tolist() == [[0.0, 2.0]]

    def test_pickled_as_a_key_index_dict_loads_and_vectorizes_identically(self):
        """Model files hold vocabularies pickled as ``{key: column}``
        dicts; they load as the same reprs and embed counts the same."""
        train = [path_graph(5), cycle_graph(4)]
        extractor = WLVertexFeatures(h=2)
        fitted = FeatureVocabulary.from_counts([extractor.extract(train)])
        keys = sorted({key for g in train for key in _wl_keys(g)}, key=repr)
        old = FeatureVocabulary.__new__(FeatureVocabulary)
        old.__dict__ = {"_index": {key: i for i, key in enumerate(keys)}}
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded.keys() == fitted.keys()
        held_out = extractor.extract([path_graph(7)])
        want, got = fitted.vectorize_rows(held_out), loaded.vectorize_rows(held_out)
        for name in ("indptr", "indices", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestVectorize:
    def test_basic(self):
        v = FeatureVocabulary(["a", "b"])
        vec = v.vectorize_rows(counts({"a": 2.0, "b": 3.0})).dense([0])[0]
        assert vec.tolist() == [2.0, 3.0]

    def test_unknown_keys_ignored(self):
        v = FeatureVocabulary(["a"])
        vec = v.vectorize_rows(counts({"a": 1.0, "unknown": 5.0})).dense([0])[0]
        assert vec.tolist() == [1.0]

    def test_rows(self):
        v = FeatureVocabulary(["a", "b"])
        table = v.vectorize_rows(counts({"a": 1}, {"b": 2}, {}))
        mat = table.dense(np.arange(3))
        assert len(table) == 3 and table.m == 2
        assert mat.shape == (3, 2)
        assert mat[2].tolist() == [0.0, 0.0]

    def test_tuple_keys(self):
        v = FeatureVocabulary([("wl", 0, 5), ("wl", 1, 3)])
        vec = v.vectorize_rows(counts({("wl", 0, 5): 4})).dense([0])[0]
        assert vec.sum() == 4

    def test_rows_keep_their_entry_order(self):
        v = FeatureVocabulary(["a", "b", "c"])
        table = v.vectorize_rows(counts({"c": 1, "x": 9, "a": 2}, {"b": 3, "a": 1}))
        assert table.indptr.tolist() == [0, 2, 4]
        assert table.indices.tolist() == [2, 0, 1, 0]
        assert table.values.tolist() == [1.0, 2.0, 3.0, 1.0]


class TestFeatureTable:
    ROWS = counts({"a": 1, "c": 2}, {}, {"b": 5}, {"c": 1})

    def test_dense_keeps_the_index_shape_and_repeats_rows(self):
        table = FeatureVocabulary(["a", "b", "c"]).vectorize_rows(self.ROWS)
        got = table.dense(np.array([[3, 1], [0, 0]]))
        assert got.shape == (2, 2, 3)
        assert got.tolist() == [
            [[0, 0, 1], [0, 0, 0]],
            [[1, 0, 2], [1, 0, 2]],
        ]

    def test_dense_of_no_rows(self):
        table = FeatureVocabulary(["a"]).vectorize_rows(self.ROWS)
        assert table.dense(np.zeros((0, 4), dtype=np.int64)).shape == (0, 4, 1)

    def test_segment_sums_per_block(self):
        table = FeatureVocabulary(["a", "b", "c"]).vectorize_rows(self.ROWS)
        sums = table.segment_sums([2, 0, 2])
        assert sums.dtype == np.float64
        assert sums.tolist() == [[1, 0, 2], [0, 0, 0], [0, 5, 1]]

    def test_segment_sums_of_an_empty_table(self):
        table = FeatureVocabulary().vectorize_rows(counts())
        assert table.segment_sums([0, 0]).shape == (2, 0)
        assert table.segment_sums([0, 0]).dtype == np.float64

    def test_segment_sums_rejects_sizes_that_miss_rows(self):
        table = FeatureVocabulary(["a"]).vectorize_rows(self.ROWS)
        with pytest.raises(ValueError, match="rows"):
            table.segment_sums([1, 1])


class TestFromCounts:
    COUNTS = [
        counts({"a": 2, "b": 1}, {"c": 1}),
        counts({"a": 1, "d": 1}),
    ]

    def test_keeps_every_key_of_a_one_pass_iterable(self):
        v = FeatureVocabulary.from_counts(iter(self.COUNTS))
        assert v.keys() == ["'a'", "'b'", "'c'", "'d'"]

    def test_max_features_keeps_most_frequent_with_repr_tie_break(self):
        # totals: a=3, b=c=d=1; the tie among b/c/d goes to repr order.
        v = FeatureVocabulary.from_counts(self.COUNTS, max_features=2)
        assert v.keys() == ["'a'", "'b'"]

    def test_of_no_counts_is_empty(self):
        assert FeatureVocabulary.from_counts([]).size == 0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_cap(self, bad):
        with pytest.raises(ValueError, match="max_features"):
            FeatureVocabulary.from_counts(self.COUNTS, max_features=bad)


def _wl_keys(g):
    """The ``("wl", iteration, color)`` keys of ``g``'s vertices."""
    from repro.features import wl_stable_colors

    return {("wl", it, c) for it, colors in enumerate(wl_stable_colors(g, 2)) for c in colors}

"""Tests for the feature vocabulary."""

import numpy as np
import pytest

from repro.features import FeatureVocabulary


class TestLifecycle:
    def test_add_then_freeze(self):
        v = FeatureVocabulary()
        v.add("b")
        v.add("a")
        v.freeze()
        assert v.size == 2

    def test_indices_sorted(self):
        v = FeatureVocabulary()
        v.add_all(["b", "a", "c"])
        v.freeze()
        assert [v.index(k) for k in ["a", "b", "c"]] == [0, 1, 2]

    def test_freeze_idempotent(self):
        v = FeatureVocabulary()
        v.add("x")
        v.freeze()
        v.freeze()
        assert v.size == 1

    def test_add_after_freeze_fails(self):
        v = FeatureVocabulary()
        v.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            v.add("x")

    def test_size_before_freeze_fails(self):
        with pytest.raises(RuntimeError):
            FeatureVocabulary().size

    def test_contains(self):
        v = FeatureVocabulary()
        v.add("x")
        assert "x" in v
        assert "y" not in v
        v.freeze()
        assert "x" in v

    def test_keys_in_column_order(self):
        v = FeatureVocabulary()
        v.add_all(["z", "m", "a"])
        v.freeze()
        assert v.keys() == ["a", "m", "z"]

    def test_order_independent_of_insertion(self):
        v1 = FeatureVocabulary()
        v1.add_all(["x", "y"])
        v2 = FeatureVocabulary()
        v2.add_all(["y", "x"])
        assert v1.freeze().keys() == v2.freeze().keys()


class TestVectorize:
    def test_basic(self):
        v = FeatureVocabulary()
        v.add_all(["a", "b"])
        v.freeze()
        vec = v.vectorize({"a": 2.0, "b": 3.0})
        assert vec.tolist() == [2.0, 3.0]

    def test_unknown_keys_ignored(self):
        v = FeatureVocabulary()
        v.add("a")
        v.freeze()
        vec = v.vectorize({"a": 1.0, "unknown": 5.0})
        assert vec.tolist() == [1.0]

    def test_rows(self):
        v = FeatureVocabulary()
        v.add_all(["a", "b"])
        v.freeze()
        mat = v.vectorize_rows([{"a": 1}, {"b": 2}, {}])
        assert mat.shape == (3, 2)
        assert mat[2].tolist() == [0.0, 0.0]

    def test_tuple_keys(self):
        v = FeatureVocabulary()
        v.add_all([("wl", 0, 5), ("wl", 1, 3)])
        v.freeze()
        vec = v.vectorize({("wl", 0, 5): 4})
        assert vec.sum() == 4


class TestFromCounts:
    COUNTS = [
        [{"a": 2, "b": 1}, {"c": 1}],
        [{"a": 1, "d": 1}],
    ]

    def test_keeps_every_key_of_a_one_pass_iterable(self):
        v = FeatureVocabulary.from_counts(iter(self.COUNTS))
        assert v.keys() == ["a", "b", "c", "d"]

    def test_max_features_keeps_most_frequent_with_repr_tie_break(self):
        # totals: a=3, b=c=d=1; the tie among b/c/d goes to repr order.
        v = FeatureVocabulary.from_counts(self.COUNTS, max_features=2)
        assert v.keys() == ["a", "b"]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_cap(self, bad):
        with pytest.raises(ValueError, match="max_features"):
            FeatureVocabulary.from_counts(self.COUNTS, max_features=bad)

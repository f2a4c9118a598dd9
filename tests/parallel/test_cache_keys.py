"""Property tests for the content-addressed cache keys.

The cache is only sound if :func:`stable_hash` is (a) *invariant* to
representation details that don't change content — dict insertion
order, list vs tuple, numpy scalar vs Python number, object identity —
and (b) *sensitive* to every hyperparameter that changes an extractor's
output.  Hypothesis hunts for violations of both directions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    cache_key,
    dataset_fingerprint,
    extractor_fingerprint,
    stable_hash,
)
from repro.features import (
    GraphletVertexFeatures,
    ShortestPathVertexFeatures,
    WLVertexFeatures,
)
from repro.graph import Graph

from tests.conftest import random_graphs

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
keys = st.one_of(st.integers(-100, 100), st.text(max_size=8))


class TestInvariance:
    @given(st.dictionaries(keys, scalars, max_size=8))
    def test_dict_insertion_order_irrelevant(self, d):
        items = list(d.items())
        assert stable_hash(dict(items)) == stable_hash(dict(reversed(items)))

    @given(st.lists(scalars, max_size=8))
    def test_list_and_tuple_agree(self, xs):
        assert stable_hash(xs) == stable_hash(tuple(xs))

    @given(st.integers(-(2**40), 2**40))
    def test_numpy_and_python_ints_agree(self, x):
        assert stable_hash(x) == stable_hash(np.int64(x))

    @given(random_graphs())
    def test_graph_identity_irrelevant(self, g):
        clone = Graph(g.n, [tuple(e) for e in g.edges], g.labels.tolist())
        assert g is not clone
        assert stable_hash(g) == stable_hash(clone)
        assert dataset_fingerprint([g, g]) == dataset_fingerprint([clone, clone])

    @given(st.dictionaries(keys, scalars, max_size=6))
    def test_hash_is_deterministic_across_calls(self, d):
        assert stable_hash(d) == stable_hash(d)


class TestSensitivity:
    @given(st.lists(scalars, min_size=1, max_size=6))
    def test_different_namespaces_never_collide(self, parts):
        assert cache_key("enc", *parts) != cache_key("counts", *parts)

    @given(random_graphs(min_nodes=2), random_graphs(min_nodes=2))
    def test_dataset_order_matters(self, g1, g2):
        if stable_hash(g1) == stable_hash(g2):
            return  # structurally identical draws fingerprint identically
        assert dataset_fingerprint([g1, g2]) != dataset_fingerprint([g2, g1])

    def test_label_change_changes_graph_hash(self):
        g = Graph(3, [(0, 1), (1, 2)], [0, 0, 0])
        relabeled = g.with_labels([0, 0, 1])
        assert stable_hash(g) != stable_hash(relabeled)

    @settings(max_examples=25)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_graphlet_k_sensitivity(self, k1, k2):
        f1 = extractor_fingerprint(GraphletVertexFeatures(k=k1))
        f2 = extractor_fingerprint(GraphletVertexFeatures(k=k2))
        assert (f1 == f2) == (k1 == k2)

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_graphlet_seed_sensitivity(self, s1, s2):
        f1 = extractor_fingerprint(GraphletVertexFeatures(seed=s1))
        f2 = extractor_fingerprint(GraphletVertexFeatures(seed=s2))
        assert (f1 == f2) == (s1 == s2)

    @settings(max_examples=25)
    @given(st.integers(0, 8), st.integers(0, 8))
    def test_wl_h_sensitivity(self, h1, h2):
        f1 = extractor_fingerprint(WLVertexFeatures(h=h1))
        f2 = extractor_fingerprint(WLVertexFeatures(h=h2))
        assert (f1 == f2) == (h1 == h2)

    @pytest.mark.parametrize("md1, md2", [(None, 3), (3, 4), (None, 1)])
    def test_sp_max_distance_sensitivity(self, md1, md2):
        f1 = extractor_fingerprint(ShortestPathVertexFeatures(max_distance=md1))
        f2 = extractor_fingerprint(ShortestPathVertexFeatures(max_distance=md2))
        assert f1 != f2

    def test_samples_sensitivity(self):
        assert extractor_fingerprint(
            GraphletVertexFeatures(samples=10)
        ) != extractor_fingerprint(GraphletVertexFeatures(samples=20))

    def test_extractor_class_disambiguates(self):
        """Two extractors with identical params still key differently."""
        assert extractor_fingerprint(WLVertexFeatures(h=3)) != extractor_fingerprint(
            GraphletVertexFeatures(k=3, samples=3, seed=3)
        )


class TestRejection:
    def test_unknown_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="Opaque"):
            stable_hash(Opaque())

    def test_unknown_type_nested_raises(self):
        with pytest.raises(TypeError):
            stable_hash({"ok": [1, 2, object()]})

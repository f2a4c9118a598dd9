"""Tests for the DeepMap estimator."""

import numpy as np
import pytest

from repro.core import DeepMapClassifier, deepmap_gk, deepmap_sp, deepmap_wl
from repro.features import ShortestPathVertexFeatures


class TestFitPredict:
    def test_learns_structural_classes(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_wl(h=2, r=3, epochs=20, seed=0)
        model.fit(graphs, y)
        assert model.score(graphs, y) >= 0.75

    def test_predict_returns_original_labels(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_sp(r=3, epochs=5, seed=0)
        model.fit(graphs, y + 10)  # classes 10 and 11
        assert set(model.predict(graphs)) <= {10, 11}

    def test_predict_proba_rows_sum_one(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_wl(h=1, r=2, epochs=3, seed=0)
        model.fit(graphs, y)
        proba = model.predict_proba(graphs)
        assert proba.shape == (len(graphs), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_validation_history(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_wl(h=1, r=2, epochs=4, seed=0)
        model.fit(graphs[:8], y[:8], validation=(graphs[8:], y[8:]))
        assert len(model.history_.val_accuracy) == 4

    def test_transform_is_low_dimensional(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_wl(h=1, r=2, epochs=3, seed=0)
        model.fit(graphs, y)
        emb = model.transform(graphs)
        assert emb.shape == (len(graphs), 8)  # paper: 8 channels after conv3

    def test_deterministic_given_seed(self, small_dataset):
        graphs, y = small_dataset
        m1 = deepmap_wl(h=1, r=2, epochs=3, seed=5).fit(graphs, y)
        m2 = deepmap_wl(h=1, r=2, epochs=3, seed=5).fit(graphs, y)
        assert np.allclose(m1.history_.loss, m2.history_.loss)


class TestVariants:
    def test_gk_variant_runs(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_gk(k=3, samples=5, r=3, epochs=3, seed=0)
        model.fit(graphs, y)
        assert model.predict(graphs).shape == (len(graphs),)

    def test_named_feature_maps(self):
        assert DeepMapClassifier("wl").extractor.name == "wl"
        assert DeepMapClassifier("sp").extractor.name == "sp"
        assert DeepMapClassifier("gk").extractor.name == "gk"

    def test_custom_extractor(self):
        model = DeepMapClassifier(ShortestPathVertexFeatures(max_distance=2))
        assert model.extractor.max_distance == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown feature map"):
            DeepMapClassifier("magic")


class TestMaxFeatures:
    def test_caps_vocabulary(self, small_dataset):
        graphs, y = small_dataset
        model = DeepMapClassifier("wl", r=2, epochs=2, max_features=5, seed=0)
        model.fit(graphs, y)
        assert model.vocabulary_.size == 5

    def test_no_cap_keeps_everything(self, small_dataset):
        graphs, y = small_dataset
        full = DeepMapClassifier("wl", r=2, epochs=2, seed=0).fit(graphs, y)
        capped = DeepMapClassifier(
            "wl", r=2, epochs=2, max_features=10**6, seed=0
        ).fit(graphs, y)
        assert capped.vocabulary_.size == full.vocabulary_.size

    def test_keeps_most_frequent(self, small_dataset):
        graphs, y = small_dataset
        full = DeepMapClassifier("wl", r=2, epochs=1, seed=0).fit(graphs, y)
        capped = DeepMapClassifier(
            "wl", r=2, epochs=1, max_features=3, seed=0
        ).fit(graphs, y)
        # Capped keys are a subset of the full vocabulary.
        assert set(capped.vocabulary_.keys()) <= set(full.vocabulary_.keys())

    def test_still_predicts(self, small_dataset):
        graphs, y = small_dataset
        model = DeepMapClassifier("sp", r=3, epochs=5, max_features=8, seed=0)
        model.fit(graphs, y)
        assert model.predict(graphs).shape == (len(graphs),)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_cap(self, small_dataset, bad):
        # -1 used to drop the least frequent substructure silently, and 0
        # failed later inside the CNN builder.
        with pytest.raises(ValueError, match="max_features"):
            DeepMapClassifier("wl", max_features=bad)
        graphs, y = small_dataset
        model = DeepMapClassifier("wl", r=2, epochs=1, seed=0)
        model.max_features = bad
        with pytest.raises(ValueError, match="max_features"):
            model.fit(graphs, y)


class TestErrors:
    def test_unfitted_predict(self, small_dataset):
        graphs, _ = small_dataset
        with pytest.raises(RuntimeError, match="not fitted"):
            deepmap_wl().predict(graphs)

    def test_label_count_mismatch(self, small_dataset):
        graphs, y = small_dataset
        with pytest.raises(ValueError):
            deepmap_wl(epochs=1).fit(graphs, y[:-1])

    def test_concat_readout_variant(self, small_dataset):
        graphs, y = small_dataset
        model = deepmap_wl(h=1, r=2, epochs=2, seed=0, readout="concat")
        model.fit(graphs, y)
        assert model.predict(graphs).shape == (len(graphs),)


class TestChunkedInference:
    """``chunk_size`` bounds memory without changing a single bit."""

    @pytest.fixture(scope="class")
    def fitted(self):
        from repro.graph import ensure_connected, erdos_renyi

        rng = np.random.default_rng(42)
        graphs, labels = [], []
        for i in range(12):
            g = erdos_renyi(8, 0.25 if i % 2 == 0 else 0.6, rng)
            g = ensure_connected(g, rng)
            graphs.append(g.with_labels((np.arange(8) % 3).tolist()))
            labels.append(i % 2)
        y = np.array(labels)
        return graphs, deepmap_wl(h=1, r=3, epochs=3, seed=0).fit(graphs, y)

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
    def test_predict_proba_chunked_bitwise_equal(self, fitted, chunk_size):
        graphs, model = fitted
        full = model.predict_proba(graphs)
        chunked = model.predict_proba(graphs, chunk_size=chunk_size)
        np.testing.assert_array_equal(full, chunked)

    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_predict_chunked_bitwise_equal(self, fitted, chunk_size):
        graphs, model = fitted
        np.testing.assert_array_equal(
            model.predict(graphs), model.predict(graphs, chunk_size=chunk_size)
        )

    def test_subset_inference_bitwise_equal(self, fitted):
        """Batch-composition invariance: scoring a subset alone must equal
        the corresponding rows of the full-batch result (this is what lets
        the serving layer fuse concurrent requests)."""
        graphs, model = fitted
        full = model.predict_proba(graphs)
        np.testing.assert_array_equal(full[:3], model.predict_proba(graphs[:3]))
        np.testing.assert_array_equal(full[7:], model.predict_proba(graphs[7:]))

    def test_bad_chunk_size_rejected(self, fitted):
        graphs, model = fitted
        with pytest.raises(ValueError, match="chunk_size"):
            model.predict_proba(graphs, chunk_size=0)

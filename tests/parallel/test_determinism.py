"""Determinism regressions: same seed, same bits — with or without cache.

The cache can only be content-addressed if every producer is a pure
function of (content, config, seed).  These tests pin that property for
the full classifier and for the one stochastic extractor (graphlet
sampling), whose RNG stream is derived from graph *content* rather than
dataset position.
"""

from __future__ import annotations

import numpy as np

from repro import cache as cache_mod
from repro.cache import FeatureMapCache, stable_hash
from repro.core import DeepMapClassifier, deepmap_wl
from repro.features import GraphletVertexFeatures
from repro.graph import Graph

from tests.oracles.features import extract_counters

# Triangle 0-1-2 with a tail 2-3-4: rooted 3-graphlets mix triangles and
# paths, so the sampled histograms genuinely depend on the RNG stream.
LOLLIPOP = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [0, 1, 0, 1, 0])
# K4 minus the (0, 3) edge.
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [0, 0, 1, 1])


def _weights(model: DeepMapClassifier) -> list[np.ndarray]:
    assert model.network_ is not None
    return [np.asarray(p.value) for p in model.network_.parameters()]


class TestClassifierDeterminism:
    def test_two_fits_identical_weights_and_predictions(self, small_dataset):
        graphs, y = small_dataset
        runs = []
        for _ in range(2):
            model = deepmap_wl(h=1, r=2, epochs=3, seed=7)
            model.fit(graphs, y)
            runs.append(model)
        a, b = runs
        weights_a, weights_b = _weights(a), _weights(b)
        assert len(weights_a) == len(weights_b) > 0
        for wa, wb in zip(weights_a, weights_b):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.predict(graphs), b.predict(graphs))
        assert a.history_.loss == b.history_.loss
        assert a.history_.train_accuracy == b.history_.train_accuracy

    def test_warm_cache_fit_matches_uncached_fit(self, small_dataset, tmp_path):
        graphs, y = small_dataset

        def fit(cache):
            model = deepmap_wl(h=1, r=2, epochs=3, seed=7, cache=cache)
            model.fit(graphs, y)
            return model

        baseline = fit(cache=None)
        assert cache_mod.get_cache() is None  # truly uncached
        cache = FeatureMapCache(cache_dir=tmp_path)
        fit(cache)  # cold: populates the cache
        warm = fit(cache)  # warm: replays cached artifacts
        assert cache.stats.hits > 0
        for wa, wb in zip(_weights(baseline), _weights(warm)):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(
            baseline.predict(graphs), warm.predict(graphs)
        )


class TestGraphletSamplingDeterminism:
    """Per-graph streams derive from content, not dataset position."""

    def test_independent_of_dataset_order(self):
        ex = GraphletVertexFeatures(k=3, samples=7, seed=11)
        solo = {
            "lolli": extract_counters(ex, [LOLLIPOP])[0],
            "diamond": extract_counters(ex, [DIAMOND])[0],
        }
        forward = extract_counters(ex, [LOLLIPOP, DIAMOND])
        backward = extract_counters(ex, [DIAMOND, LOLLIPOP])
        assert forward[0] == solo["lolli"] == backward[1]
        assert forward[1] == solo["diamond"] == backward[0]

    def test_pinned_sampled_counts(self):
        """Regression pin: the exact sampled histograms for seed 11.

        If this breaks, the graphlet RNG derivation changed — every
        cached "counts" entry for GK features is silently stale
        and cache keys must be revisited.
        """
        ex = GraphletVertexFeatures(k=3, samples=7, seed=11)
        lolli = extract_counters(ex, [LOLLIPOP])[0]
        diamond = extract_counters(ex, [DIAMOND])[0]
        assert stable_hash([dict(c) for c in lolli]) == (
            "e10bc18e06f699eafad83432eeb3f751"
        )
        assert stable_hash([dict(c) for c in diamond]) == (
            "dfcbf6c7d672f3fbed5cac28da919837"
        )
        # One spelled-out vertex: the triangle apex of the lollipop.
        assert dict(lolli[2]) == {("glet", 3, 6): 3, ("glet", 3, 7): 4}

    def test_every_vertex_draws_its_sample_budget(self):
        ex = GraphletVertexFeatures(k=3, samples=7, seed=11)
        for counts in extract_counters(ex, [LOLLIPOP, DIAMOND]):
            assert [sum(c.values()) for c in counts] == [7] * len(counts)

    def test_seed_changes_samples(self):
        a = extract_counters(GraphletVertexFeatures(k=3, samples=7, seed=11), [LOLLIPOP])
        b = extract_counters(GraphletVertexFeatures(k=3, samples=7, seed=12), [LOLLIPOP])
        assert a != b

    def test_label_change_changes_stream(self):
        """Content-derived streams depend on labels too, so a relabeled
        graph cannot silently reuse the original graph's sample stream.
        (The structural histograms may coincide; the streams must not.)"""
        from repro.utils.rng import derive_rng

        relabeled = LOLLIPOP.with_labels([1, 1, 1, 1, 1])

        def stream(g):
            rng = derive_rng(
                11, str(g.n).encode(), g.edges.tobytes(), g.labels.tobytes()
            )
            return rng.integers(0, 2**63, size=4).tolist()

        assert stream(LOLLIPOP) != stream(relabeled)
        assert stream(LOLLIPOP) == stream(LOLLIPOP)  # and they are stable

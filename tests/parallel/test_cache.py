"""FeatureMapCache behavior: tiers, eviction, corruption, defaults."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache as cache_mod
from repro.cache import (
    CACHE_DIR_ENV,
    FeatureMapCache,
    cache_key,
    configure,
    get_cache,
    reset_default_cache,
)
from repro.core import DeepMapClassifier
from repro.features import (
    WLVertexFeatures,
    extract_vertex_feature_matrices,
)


def _payload(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"a": rng.normal(size=(4, 3)), "b": np.arange(seed + 2)}


def _assert_payload_equal(got, expected) -> None:
    assert sorted(got) == sorted(expected)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name])


class TestTiers:
    def test_memory_roundtrip(self):
        cache = FeatureMapCache()
        key = cache_key("t", 1)
        assert cache.get(key) is None
        cache.put(key, _payload(0))
        _assert_payload_equal(cache.get(key), _payload(0))
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_disk_roundtrip_across_instances(self, tmp_path):
        key = cache_key("t", 2)
        FeatureMapCache(cache_dir=tmp_path).put(key, _payload(3))
        fresh = FeatureMapCache(cache_dir=tmp_path)
        _assert_payload_equal(fresh.get(key), _payload(3))
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 0
        # The disk hit was promoted into the memory tier.
        fresh.get(key)
        assert fresh.stats.memory_hits == 1

    @pytest.mark.parametrize("cache_dir", [None, "disk"])
    def test_object_dtype_payload_is_refused(self, tmp_path, cache_dir):
        """Only pickle could store an object array; put refuses it and
        stores nothing, in either tier."""
        boxed = np.empty(1, dtype=object)
        boxed[0] = [{("wl", 0, 7): 2}]
        cache = FeatureMapCache(cache_dir=tmp_path if cache_dir else None)
        key = cache_key("t", 3)
        with pytest.raises(TypeError, match="object dtype"):
            cache.put(key, {"counts": boxed, "ok": np.zeros(2)})
        assert cache.get(key) is None
        assert cache.stats.stores == 0 and cache.disk_usage() == (0, 0)

    def test_lru_evicts_oldest(self):
        cache = FeatureMapCache(memory_items=2)
        for i in range(3):
            cache.put(f"key-{i}", _payload(i))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("key-0") is None  # oldest dropped
        assert cache.get("key-2") is not None

    def test_lru_touch_on_get(self):
        cache = FeatureMapCache(memory_items=2)
        cache.put("key-0", _payload(0))
        cache.put("key-1", _payload(1))
        cache.get("key-0")  # key-0 becomes most recent
        cache.put("key-2", _payload(2))
        assert cache.get("key-0") is not None
        assert cache.get("key-1") is None

    def test_disk_put_is_not_pinned_in_memory(self, tmp_path):
        cache = FeatureMapCache(cache_dir=tmp_path)
        cache.put("key-d", _payload(0))
        assert len(cache) == 0
        _assert_payload_equal(cache.get("key-d"), _payload(0))
        assert cache.stats.disk_hits == 1 and cache.stats.mmap_hits == 1
        assert len(cache) == 1  # the disk hit is promoted as mapped views
        assert all(isinstance(a, np.memmap) for a in cache.get("key-d").values())

    def test_put_replaces_a_promoted_payload(self, tmp_path):
        cache = FeatureMapCache(cache_dir=tmp_path)
        cache.put("key-r", _payload(0))
        cache.get("key-r")  # promoted into memory
        cache.put("key-r", _payload(1))
        _assert_payload_equal(cache.get("key-r"), _payload(1))

    def test_memory_tier_disabled(self, tmp_path):
        cache = FeatureMapCache(cache_dir=tmp_path, memory_items=0)
        cache.put("key-x", _payload(0))
        assert len(cache) == 0
        assert cache.get("key-x") is not None  # served from disk
        assert cache.stats.disk_hits == 1

    def test_negative_memory_items_rejected(self):
        with pytest.raises(ValueError, match="memory_items"):
            FeatureMapCache(memory_items=-1)


class TestCorruption:
    def test_corrupted_file_is_a_miss_then_recomputes(self, tmp_path):
        key = cache_key("t", 4)
        writer = FeatureMapCache(cache_dir=tmp_path)
        writer.put(key, _payload(5))
        path = next(tmp_path.glob("??/*.npz"))
        path.write_bytes(b"this is not a zip archive")
        reader = FeatureMapCache(cache_dir=tmp_path)
        assert reader.get(key) is None  # corruption -> miss, no raise
        assert reader.stats.errors == 1
        assert reader.stats.misses == 1
        assert not path.exists()  # offending file dropped
        reader.put(key, _payload(5))  # recompute path works
        _assert_payload_equal(
            FeatureMapCache(cache_dir=tmp_path).get(key), _payload(5)
        )

    def test_truncated_file_is_a_miss(self, tmp_path):
        key = cache_key("t", 5)
        writer = FeatureMapCache(cache_dir=tmp_path)
        writer.put(key, _payload(6))
        path = next(tmp_path.glob("??/*.npz"))
        path.write_bytes(path.read_bytes()[:20])
        reader = FeatureMapCache(cache_dir=tmp_path)
        assert reader.get(key) is None
        assert reader.stats.errors == 1

    def test_unwritable_dir_never_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file where a directory must go")
        cache = FeatureMapCache(cache_dir=blocker)
        cache.put("key-y", _payload(0))  # disk write fails silently
        assert cache.stats.errors == 1
        assert cache.get("key-y") is not None  # memory tier still serves

    def test_pipeline_recovers_from_corruption(self, small_dataset, tmp_path):
        """End to end: corrupt every cached file, the model still fits."""
        graphs, y = small_dataset
        cache = FeatureMapCache(cache_dir=tmp_path)
        model = DeepMapClassifier("wl", r=2, epochs=2, seed=0, cache=cache)
        model.fit(graphs, y)
        preds_cold = model.predict(graphs)
        for path in tmp_path.glob("??/*.npz"):
            path.write_bytes(b"garbage")
        fresh_cache = FeatureMapCache(cache_dir=tmp_path)
        model2 = DeepMapClassifier("wl", r=2, epochs=2, seed=0, cache=fresh_cache)
        model2.fit(graphs, y)
        np.testing.assert_array_equal(model2.predict(graphs), preds_cold)
        assert fresh_cache.stats.errors > 0


class TestMaintenance:
    def test_clear_drops_both_tiers(self, tmp_path):
        cache = FeatureMapCache(cache_dir=tmp_path)
        for i in range(3):
            cache.put(f"key-{i}", _payload(i))
        assert cache.disk_usage()[0] == 3
        assert cache.clear() == 3
        assert cache.disk_usage() == (0, 0)
        assert len(cache) == 0

    def test_disk_usage_counts_bytes(self, tmp_path):
        cache = FeatureMapCache(cache_dir=tmp_path)
        cache.put("key-0", _payload(0))
        entries, size = cache.disk_usage()
        assert entries == 1
        assert size > 0


class TestDefaultCache:
    def test_disabled_by_default(self):
        assert get_cache() is None

    def test_env_variable_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        reset_default_cache()
        cache = get_cache()
        assert cache is not None
        assert cache.cache_dir == tmp_path
        assert get_cache() is cache  # one instance per process

    def test_configure_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        configured = configure(cache_dir=tmp_path / "explicit")
        assert get_cache() is configured

    def test_memory_only_configure(self):
        cache = configure()
        assert cache.cache_dir is None
        cache.put("k", _payload(0))
        assert cache.get("k") is not None


def _csr(table):
    """A feature table's CSR arrays."""
    return table.indptr, table.indices, table.values


class TestCachedHelpers:
    def test_counts_hit_is_bitwise_identical(self, small_dataset, tmp_path):
        graphs, _ = small_dataset
        extractor = WLVertexFeatures(h=2)
        cache = FeatureMapCache(cache_dir=tmp_path)
        cold_t, cold_v = extract_vertex_feature_matrices(
            graphs, extractor, cache=cache
        )
        warm_t, warm_v = extract_vertex_feature_matrices(
            graphs, extractor, cache=cache
        )
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.by_namespace["counts_hits"] == 1
        assert warm_v.keys() == cold_v.keys()
        assert warm_t.m == cold_t.m
        for a, b in zip(_csr(cold_t), _csr(warm_t)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_disk_hit_from_fresh_process_state(self, small_dataset, tmp_path):
        """Same dataset, new cache instance: still bitwise identical."""
        graphs, _ = small_dataset
        extractor = WLVertexFeatures(h=2)
        cold_t, cold_v = extract_vertex_feature_matrices(
            graphs, extractor, cache=FeatureMapCache(cache_dir=tmp_path)
        )
        fresh = FeatureMapCache(cache_dir=tmp_path)
        warm_t, warm_v = extract_vertex_feature_matrices(
            graphs, extractor, cache=fresh
        )
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.by_namespace["counts_hits"] == 1
        assert warm_v.keys() == cold_v.keys()
        for a, b in zip(_csr(cold_t), _csr(warm_t)):
            np.testing.assert_array_equal(a, b)

    def test_feature_matrices_cache_only_counts(self, small_dataset, tmp_path):
        """The feature table is rebuilt from cached counts, never stored."""
        graphs, _ = small_dataset
        cache = FeatureMapCache(cache_dir=tmp_path)
        for _ in range(2):
            extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=2), cache=cache)
        assert set(cache.stats.by_namespace) == {
            "counts_misses", "counts_stores", "counts_hits"
        }
        assert cache.disk_usage()[0] == 1

    def test_cache_stats_diff_and_merge_roundtrip(self):
        cache = FeatureMapCache()
        before = cache.stats.as_dict()
        cache.put("k", _payload(0))
        cache.get("k")
        cache.get("missing")
        delta = cache.stats.diff(before)
        assert delta["hits"] == 1 and delta["misses"] == 1
        other = FeatureMapCache()
        other.stats.merge(delta)
        assert other.stats.hits == 1
        assert other.stats.misses == 1
        assert other.stats.stores == 1

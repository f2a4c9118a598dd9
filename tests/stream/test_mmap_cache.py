"""FeatureMapCache mmap disk reads: zero-copy hits, corruption -> miss."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import FeatureMapCache, cache_key


@pytest.fixture()
def payload():
    return {
        "tensors": np.arange(240, dtype=np.float64).reshape(4, 6, 10),
        "meta": np.array([3, 1, 4], dtype=np.int64),
    }


def write_entry(tmp_path, payload):
    key = cache_key("enc", "mmap-test")
    writer = FeatureMapCache(cache_dir=tmp_path)
    writer.put(key, payload, namespace="enc")
    path = writer._path(key)
    assert path.exists()
    return key, path


def test_disk_read_memory_maps_and_matches_bitwise(tmp_path, payload):
    key, _ = write_entry(tmp_path, payload)
    reader = FeatureMapCache(cache_dir=tmp_path)  # cold memory tier
    got = reader.get(key, namespace="enc")
    assert got is not None
    assert reader.stats.mmap_hits == 1
    assert reader.stats.disk_hits == 1
    for name, want in payload.items():
        arr = got[name]
        assert isinstance(arr, np.memmap)
        assert not arr.flags.writeable
        assert arr.dtype == want.dtype
        assert arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()


def test_pickled_entry_is_a_clean_miss_and_is_dropped(tmp_path):
    """A file holding a pickled member (the boxed payloads older builds
    wrote) is never unpickled: it is an error, a miss, and deleted."""
    keys = np.empty(2, dtype=object)
    keys[0], keys[1] = ("a", 1), ("b", 2)
    key, path = write_entry(tmp_path, {"tensors": np.zeros(3)})
    np.savez(path, keys=keys)  # what a pickling writer left behind
    reader = FeatureMapCache(cache_dir=tmp_path)
    assert reader.get(key, namespace="enc") is None
    assert reader.stats.errors == 1 and reader.stats.misses == 1
    assert reader.stats.mmap_hits == 0 and reader.stats.disk_hits == 0
    assert not path.exists()


def test_compressed_entry_falls_back_to_copying_read(tmp_path, payload):
    key, path = write_entry(tmp_path, payload)
    np.savez_compressed(path, **payload)  # a foreign, compressed container
    reader = FeatureMapCache(cache_dir=tmp_path)
    got = reader.get(key, namespace="enc")
    assert got is not None
    assert reader.stats.mmap_hits == 0
    assert got["tensors"].tobytes() == payload["tensors"].tobytes()


@pytest.mark.parametrize("keep_bytes", [1, 40, 0.5])
def test_truncated_entry_is_a_clean_miss_not_a_sigbus(
    tmp_path, payload, keep_bytes
):
    # Regression: mapped reads must validate member spans against the
    # real file size at *map* time.  A lazily-validated mmap would hand
    # out an array whose pages fault (SIGBUS) on first touch.
    key, path = write_entry(tmp_path, payload)
    size = path.stat().st_size
    keep = int(size * keep_bytes) if isinstance(keep_bytes, float) else keep_bytes
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    reader = FeatureMapCache(cache_dir=tmp_path)
    assert reader.get(key, namespace="enc") is None
    assert reader.stats.errors == 1
    assert reader.stats.misses == 1
    assert not path.exists()  # dropped so the next put starts clean
    reader.put(key, payload, namespace="enc")
    fresh = FeatureMapCache(cache_dir=tmp_path)
    got = fresh.get(key, namespace="enc")
    assert got is not None
    assert got["tensors"].tobytes() == payload["tensors"].tobytes()


def test_garbage_file_is_a_clean_miss(tmp_path, payload):
    key, path = write_entry(tmp_path, payload)
    path.write_bytes(b"not a zip archive at all")
    reader = FeatureMapCache(cache_dir=tmp_path)
    assert reader.get(key, namespace="enc") is None
    assert reader.stats.errors == 1
    assert not path.exists()


def test_mmap_hit_survives_memory_eviction_roundtrip(tmp_path, payload):
    # memory_items=0 forces every get through the disk tier: repeated
    # reads stay mapped (no unbounded resident growth from rereads).
    key, _ = write_entry(tmp_path, payload)
    reader = FeatureMapCache(cache_dir=tmp_path, memory_items=0)
    for i in range(3):
        got = reader.get(key, namespace="enc")
        assert got is not None
        assert isinstance(got["tensors"], np.memmap)
    assert reader.stats.mmap_hits == 3

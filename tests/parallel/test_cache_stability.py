"""Cache keys across optimization PRs: stability where outputs are
unchanged, deliberate rotation where they are not.

Every hex constant below was captured by running the implementation
*before* the optimization PR it guards.  The content-addressed keys hash
only the cache *inputs* — graph structure, labels, extractor class and
hyperparameters, encoder parameters, plus an explicit ``CACHE_VERSION``
algorithm tag when an extractor declares one — so:

* GK and SP keys are pinned to the pre-vectorization captures and must
  never change: their outputs are bitwise-identical across every PR, so
  pre-PR warm caches must keep hitting;
* WL keys *rotated exactly once*, when the WL colors switched from
  blake2b digests to splitmix64 codes (``CACHE_VERSION =
  "wl-colors/mix64-v2"``).  The old keys are kept here and asserted
  retired — a stale pre-remap WL entry must be unreachable, never
  silently served;
* ``enc`` keys *rotated exactly once*, when the encoder input became a
  sparse feature table: the key hashes the table's CSR arrays and width
  instead of the dense per-graph matrices.  The feature values did not
  change (the dense oracle still hashes to the retired key); the old SP
  ``enc`` key is kept and an entry parked there is asserted unread.

The disk round trips go one step further and land on the literal pinned
``enc`` key: a warm lookup must HIT it, not recompute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    FeatureMapCache,
    cache_key,
    dataset_fingerprint,
    extractor_fingerprint,
    stable_hash,
)
from repro.core import DeepMapEncoder
from repro.features import (
    GraphletVertexFeatures,
    ShortestPathVertexFeatures,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
)
from repro.graph import Graph

from tests.oracles.core import dense_input
from tests.oracles.features import _reference_feature_matrices

#: Fingerprint of `_pinned_dataset()` captured at the seed commit.
PRE_PR_DATASET_FP = "ec7333c5e7572cf6fb5de54118daeadd"

#: Stable extractors: (constructor, fingerprint, counts key)
#: captured pre-vectorization; bitwise-unchanged outputs, keys must hold.
STABLE_EXTRACTORS = [
    (
        lambda: GraphletVertexFeatures(k=3, samples=5, seed=0),
        "2bf3e5d4cc3ead24d66fbdcfebd38aea",
        "2d33bd3440888fede1fc1eb6f931c8c1",
    ),
    (
        lambda: ShortestPathVertexFeatures(),
        "712b01bc4da39db7fd181864f4a27f0e",
        "c1ec41afb53c326176ecd447e7282389",
    ),
]

#: WL h=2 keys before the color remap (blake2b color era) — retired.
OLD_WL_FP = "ddf25e900aa43fd4a4f8719a5345725e"
OLD_WL_COUNTS_KEY = "e2125e7b4842bcd69df4a5984fc4e6c7"

#: WL h=2 keys under CACHE_VERSION "wl-colors/mix64-v2" (current).
WL_FP = "796dcb8290b751cdc2f26884f494b834"
WL_COUNTS_KEY = "e6cabf6742faee0d73d8ce4436320678"

#: Encoder key for dense SP matrices with r=3, eigenvector, w=6 —
#: captured before the fused-encode PR and held until the sparse feature
#: table replaced the dense matrices as encoder input — retired.
PRE_PR_SP_MATRICES_HASH = "fa53fabde5f14ce436fd8816e0b184a6"
PRE_PR_SP_ENC_KEY = "4d835c650cc3a18508da2d157b454dcd"

#: The same encoding keyed by the SP feature table's CSR arrays (current).
SP_TABLE_HASH = "5b7198b36cf9ae7c85189f4073353aba"
SP_ENC_KEY = "9fcf445f3f3382abeabe74736743fb5b"


def _pinned_dataset() -> list[Graph]:
    g1 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0, 1, 0, 1, 2])
    g2 = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)], [1, 1, 0, 2])
    g3 = Graph(6, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 2, 2, 0])
    return [g1, g2, g3]


class TestPinnedKeys:
    def test_dataset_fingerprint_unchanged(self):
        assert dataset_fingerprint(_pinned_dataset()) == PRE_PR_DATASET_FP

    @pytest.mark.parametrize(
        "make,fp,counts_key",
        STABLE_EXTRACTORS,
        ids=["graphlet", "shortest_path"],
    )
    def test_stable_extractor_keys_unchanged(self, make, fp, counts_key):
        extractor = make()
        assert extractor_fingerprint(extractor) == fp
        ds = dataset_fingerprint(_pinned_dataset())
        assert cache_key("counts", ds, fp) == counts_key

    def test_wl_keys_rotated_exactly_once(self):
        """The remap changed WL outputs, so CACHE_VERSION must have
        moved every WL key off its pre-remap address — and onto the
        pinned current one, so the rotation itself is deterministic."""
        fp = extractor_fingerprint(WLVertexFeatures(h=2))
        assert fp == WL_FP
        assert fp != OLD_WL_FP
        ds = dataset_fingerprint(_pinned_dataset())
        assert cache_key("counts", ds, fp) == WL_COUNTS_KEY != OLD_WL_COUNTS_KEY

    def test_wl_fingerprint_tracks_cache_version(self):
        """A CACHE_VERSION bump alone must rotate the fingerprint."""

        class Bumped(WLVertexFeatures):
            CACHE_VERSION = "wl-colors/test-v999"

        assert extractor_fingerprint(Bumped(h=2)) != extractor_fingerprint(
            WLVertexFeatures(h=2)
        )

    def test_sp_encoder_key_rotated_exactly_once(self):
        """The dense SP matrices still hash to the retired key (the
        features did not change); the sparse table lands on the pinned
        current key, which ``encode_key`` computes."""
        graphs = _pinned_dataset()
        matrices, _ = _reference_feature_matrices(graphs, ShortestPathVertexFeatures())
        assert stable_hash(list(matrices)) == PRE_PR_SP_MATRICES_HASH
        ds = dataset_fingerprint(graphs)
        old_key = cache_key("enc", ds, PRE_PR_SP_MATRICES_HASH, 3, "eigenvector", 6)
        assert old_key == PRE_PR_SP_ENC_KEY

        table, _ = extract_vertex_feature_matrices(graphs, ShortestPathVertexFeatures())
        table_hash = stable_hash([table.indptr, table.indices, table.values, table.m])
        assert table_hash == SP_TABLE_HASH
        key = cache_key("enc", ds, table_hash, 3, "eigenvector", 6)
        assert key == SP_ENC_KEY != PRE_PR_SP_ENC_KEY
        assert DeepMapEncoder(r=3).fit(graphs).encode_key(graphs, table) == SP_ENC_KEY


class TestPrePrEntriesStillHit:
    def test_stale_pre_remap_wl_entry_is_never_served(self, tmp_path):
        """An entry parked at the OLD WL key must be ignored — the
        rotated fingerprint makes it unreachable, forcing a recompute
        under the new color scheme instead of serving stale colors."""
        graphs = _pinned_dataset()
        path = tmp_path / OLD_WL_COUNTS_KEY[:2] / f"{OLD_WL_COUNTS_KEY}.npz"
        path.parent.mkdir(parents=True)
        np.savez(path, poison=np.zeros(1))

        cache = FeatureMapCache(cache_dir=tmp_path)
        extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=2), cache=cache)
        assert cache.stats.disk_hits == 0
        assert cache.stats.misses == 1
        assert (tmp_path / WL_COUNTS_KEY[:2] / f"{WL_COUNTS_KEY}.npz").exists()

    def test_warm_cache_round_trips_through_fused_encode(self, tmp_path):
        """Cold write then warm read of the full encode path, same bits,
        landing on the pinned SP encoder key."""
        graphs = _pinned_dataset()
        cache = FeatureMapCache(cache_dir=tmp_path)
        table, _ = extract_vertex_feature_matrices(
            graphs, ShortestPathVertexFeatures(), cache=cache
        )
        cold = DeepMapEncoder(r=3).fit(graphs).encode(graphs, table, cache=cache)
        enc_path = tmp_path / SP_ENC_KEY[:2] / f"{SP_ENC_KEY}.npz"
        assert enc_path.exists()

        fresh = FeatureMapCache(cache_dir=tmp_path)  # disk tier only
        warm = DeepMapEncoder(r=3).fit(graphs).encode(graphs, table, cache=fresh)
        assert fresh.stats.disk_hits == 1
        assert dense_input(warm).tobytes() == dense_input(cold).tobytes()
        assert warm.vertex_mask.tobytes() == cold.vertex_mask.tobytes()
        assert warm.slots.dtype == np.int64
        assert warm.slots.tobytes() == cold.slots.tobytes()

    def test_enc_payload_without_slots_is_recomputed(self, tmp_path):
        """An ``enc`` entry written before the slot table existed
        (``{tensors, vertex_mask}``) sits under the retired key: it is
        never read; the encoding is recomputed under the new key."""
        _assert_retired_enc_entry_is_never_read(tmp_path, ["tensors", "vertex_mask"])

    def test_enc_payload_without_rows_is_recomputed(self, tmp_path):
        """Likewise for an entry written before the row-index table
        existed (``{tensors, slots}``, the dense tensor) and one written
        with the dense feature rows (``{features, rows, slots}``)."""
        _assert_retired_enc_entry_is_never_read(tmp_path, ["tensors", "slots"])
        _assert_retired_enc_entry_is_never_read(tmp_path, ["features", "rows", "slots"])


def _assert_retired_enc_entry_is_never_read(tmp_path, stale_fields):
    graphs = _pinned_dataset()
    table, _ = extract_vertex_feature_matrices(graphs, ShortestPathVertexFeatures())
    want = DeepMapEncoder(r=3).fit(graphs).encode(graphs, table)
    stale_path = tmp_path / PRE_PR_SP_ENC_KEY[:2] / f"{PRE_PR_SP_ENC_KEY}.npz"
    new_path = tmp_path / SP_ENC_KEY[:2] / f"{SP_ENC_KEY}.npz"
    stale_path.parent.mkdir(parents=True, exist_ok=True)
    new_path.unlink(missing_ok=True)
    # Poisoned arrays: serving the stale entry would show.
    stale = {
        "tensors": np.zeros(want.shape),
        "vertex_mask": np.zeros_like(want.vertex_mask),
        "features": np.zeros((len(want.features), want.m)),
        "rows": np.zeros_like(want.rows),
        "slots": np.zeros_like(want.slots),
    }
    np.savez(stale_path, **{name: stale[name] for name in stale_fields})

    cache = FeatureMapCache(cache_dir=tmp_path)
    got = DeepMapEncoder(r=3).fit(graphs).encode(graphs, table, cache=cache)
    assert cache.stats.disk_hits == 0  # the retired entry is unreachable
    assert cache.stats.misses == 1
    assert dense_input(got).tobytes() == dense_input(want).tobytes()
    assert got.slots.tobytes() == want.slots.tobytes()
    with np.load(stale_path) as npz:
        assert sorted(npz.files) == sorted(stale_fields)
    with np.load(new_path) as npz:
        assert sorted(npz.files) == ["indices", "indptr", "m", "rows", "slots", "values"]
        assert npz["indptr"].tobytes() == want.features.indptr.tobytes()
        assert npz["indices"].tobytes() == want.features.indices.tobytes()
        assert npz["values"].tobytes() == want.features.values.tobytes()
        assert npz["m"].tolist() == [want.m]
        assert npz["rows"].tobytes() == want.rows.tobytes()

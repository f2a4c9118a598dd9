"""fit_stream: degradation, failure and bounded memory, bitwise-equal results."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import deepmap_wl
from repro.datasets import make_dataset
from repro.obs.resources import sample_resources
from repro.resilience import faults

from tests.stream.conftest import model_fingerprint

SCALE = 0.02  # 40 MUTAG graphs: 10 shards at shard_size=4


def fresh_model(**overrides):
    params = dict(h=2, r=3, epochs=2, seed=0)
    params.update(overrides)
    return deepmap_wl(**params)


@pytest.fixture(scope="module")
def materialized_fingerprint():
    ds = make_dataset("MUTAG", scale=SCALE, seed=0)
    model = fresh_model().fit(ds.graphs, ds.y)
    return model_fingerprint(model)


@pytest.fixture()
def live_metrics():
    """Real (non-null) obs counters for the duration of one test."""
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def stream_fit(**kwargs):
    stream = make_dataset("MUTAG", scale=SCALE, seed=0, stream=True)
    model = fresh_model()
    model.fit_stream(stream, shard_size=kwargs.pop("shard_size", 4), **kwargs)
    return model


def test_fit_stream_matches_fit_bitwise(materialized_fingerprint):
    assert model_fingerprint(stream_fit()) == materialized_fingerprint


def test_torn_enc_spill_is_reencoded_and_fit_is_bitwise_identical(
    materialized_fingerprint, live_metrics
):
    # The vocabulary pass writes one ``counts`` entry per shard, so write
    # number ``num_shards`` is shard 0's ``enc`` spill.  It is torn on
    # disk and evicted from the two-slot memory LRU long before training
    # reads it back, so the read is a miss and the shard is regenerated
    # from seeds and re-encoded.
    num_shards = make_dataset("MUTAG", scale=SCALE, seed=0, stream=True).num_shards(4)
    faults.install(f"corrupt@cache_write:{num_shards}")
    model = stream_fit()
    assert model_fingerprint(model) == materialized_fingerprint
    assert obs.counter("faults_injected_total").value == 1
    assert obs.counter("stream_shard_reencodes_total").value >= 1


def test_truncated_vocabulary_matches_fit_bitwise():
    # Both fits build the vocabulary with FeatureVocabulary.from_counts;
    # the streamed one feeds it shard by shard.
    ds = make_dataset("MUTAG", scale=SCALE, seed=0)
    materialized = fresh_model(max_features=16).fit(ds.graphs, ds.y)
    stream = make_dataset("MUTAG", scale=SCALE, seed=0, stream=True)
    streamed = fresh_model(max_features=16)
    streamed.fit_stream(stream, shard_size=4)
    assert streamed.vocabulary_.size == 16
    assert streamed.vocabulary_.keys() == materialized.vocabulary_.keys()
    assert model_fingerprint(streamed) == model_fingerprint(materialized)


@pytest.mark.parametrize("bad", [0, -1])
def test_fit_stream_rejects_non_positive_max_features(bad):
    with pytest.raises(ValueError, match="max_features"):
        fresh_model(max_features=bad)
    stream = make_dataset("MUTAG", scale=SCALE, seed=0, stream=True)
    model = fresh_model()
    model.max_features = bad
    with pytest.raises(ValueError, match="max_features"):
        model.fit_stream(stream, shard_size=4)


def test_failing_shard_raises_out_of_fit_stream():
    # No background worker absorbs the error: like the materialized
    # ``fit``, a shard that raises fails the call.
    faults.install("raise@cache_write:1")
    with pytest.raises(faults.InjectedFault):
        stream_fit()


@pytest.mark.slow
def test_100x_scale_trains_with_bounded_rss():
    # The materialized suites cap out around scale 0.05 (40 MUTAG
    # graphs, one resident encoding).  Stream 100x that and
    # assert the working set never approaches what materializing would
    # need — the acceptance bound for the out-of-core pipeline.
    obs.reset()
    obs.enable()
    try:
        stream = make_dataset("MUTAG", scale=44.0, seed=0, stream=True)
        assert len(stream) >= 100 * 40
        model = fresh_model(h=1, r=2, epochs=1, max_features=128)

        before = sample_resources()["rss_bytes"]
        peak_seen = 0
        stop = threading.Event()

        def watch():
            nonlocal peak_seen
            while not stop.is_set():
                peak_seen = max(peak_seen, sample_resources()["rss_bytes"])
                time.sleep(0.05)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            model.fit_stream(stream, shard_size=64)
        finally:
            stop.set()
            watcher.join(timeout=5.0)

        n = len(stream)
        w, r, m = model.encoder_.w, model.r, model.vocabulary_.size
        full_tensor_bytes = n * w * r * m * 8
        growth = max(peak_seen - before, 0)
        # Materializing needs the full tensor resident; streaming holds a
        # few shards + one mini-batch.  Require a 10x margin at least.
        assert growth < full_tensor_bytes / 10, (
            f"streamed fit grew RSS by {growth / 2**20:.1f} MiB; the "
            f"materialized tensor alone is {full_tensor_bytes / 2**20:.1f} MiB"
        )
        # The Trainer's streaming mode tracked it in obs.
        assert obs.gauge("resource_peak_rss_bytes").value > 0
        assert len(model.history_.loss) == 1
        assert np.isfinite(model.history_.loss[0])
    finally:
        obs.disable()
        obs.reset()

"""DistWorker lifecycle, the KV ops, and remote-tier cache fallthrough."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import FeatureMapCache, cache_key
from repro.dist import (
    DistWorker,
    RemoteCacheClient,
    WorkerClient,
    WorkerRejected,
)
from repro.dist import protocol

pytestmark = pytest.mark.dist


def test_worker_ping_info_shutdown():
    worker = DistWorker(shard_index=1, num_shards=3, worker_id="w-test")
    host, port = worker.start()
    assert port != 0  # ephemeral port was resolved
    client = WorkerClient(host, port)
    try:
        assert client.ping()["worker_id"] == "w-test"
        info, _ = client.request({"op": protocol.OP_INFO})
        assert info["shard_index"] == 1
        assert info["num_shards"] == 3
        client.shutdown()
        worker._accept_thread.join(timeout=5.0)
        assert worker._stop.is_set()
    finally:
        client.close()
        worker.stop()


def test_worker_rejects_invalid_shard():
    with pytest.raises(ValueError):
        DistWorker(shard_index=2, num_shards=2)


def test_unknown_op_is_rejected_not_fatal(worker_fleet):
    _, [(host, port)] = worker_fleet(1)
    client = WorkerClient(host, port)
    try:
        with pytest.raises(WorkerRejected, match="unknown op"):
            client.request({"op": "no-such-op"})
        # The connection survives a rejection: next request works.
        assert client.ping()["worker_id"] == "shard0"
    finally:
        client.close()


def test_kv_put_get_roundtrip(worker_fleet):
    _, [(host, port)] = worker_fleet(1)
    client = WorkerClient(host, port)
    key = cache_key("counts", "deadbeef", "cafebabe")
    payload = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
    try:
        header, _ = client.request(
            {"op": protocol.OP_KV_GET, "key": key, "namespace": "counts"}
        )
        assert header["hit"] is False
        client.request(
            {"op": protocol.OP_KV_PUT, "key": key, "namespace": "counts"},
            payload,
        )
        header, arrays = client.request(
            {"op": protocol.OP_KV_GET, "key": key, "namespace": "counts"}
        )
        assert header["hit"] is True
        np.testing.assert_array_equal(arrays["a"], payload["a"])
    finally:
        client.close()


def test_remote_tier_fallthrough_and_backfill(worker_fleet):
    """A local miss fetches from the peer and lands in the local tiers."""
    workers, addresses = worker_fleet(2)
    key = cache_key("counts", "feedface", "0123abcd")
    payload = {"x": np.linspace(0, 1, 7)}
    workers[1].cache.put(key, payload, namespace="counts")

    local = FeatureMapCache(remote=RemoteCacheClient([addresses[1]]))
    got = local.get(key, namespace="counts")
    assert got is not None
    np.testing.assert_array_equal(got["x"], payload["x"])
    assert local.stats.remote_hits == 1
    # Backfilled: the second get answers from memory, no second fetch.
    again = local.get(key, namespace="counts")
    np.testing.assert_array_equal(again["x"], payload["x"])
    assert local.stats.remote_hits == 1
    assert local.stats.memory_hits == 1


def test_kv_get_is_local_only_no_peer_recursion(worker_fleet):
    """Two all-miss workers pointed at each other terminate immediately.

    The KV server answers peer lookups from its local tiers only; if it
    consulted its own remote tier, two empty caches would ping-pong the
    same key forever.
    """
    workers, addresses = worker_fleet(2)
    workers[0].cache.remote = RemoteCacheClient([addresses[1]])
    workers[1].cache.remote = RemoteCacheClient([addresses[0]])
    missing = cache_key("counts", "00000000", "00000000")
    assert workers[0].cache.get(missing, namespace="counts") is None
    assert workers[1].cache.get(missing, namespace="counts") is None


def test_remote_cache_client_skips_dead_peers():
    import socket as socket_mod

    probe = socket_mod.socket()
    probe.bind(("127.0.0.1", 0))
    dead = probe.getsockname()
    probe.close()

    worker = DistWorker()
    address = worker.start()
    key = cache_key("counts", "aabbccdd", "11223344")
    worker.cache.put(key, {"v": np.ones(3)}, namespace="counts")
    try:
        client = RemoteCacheClient([dead, address], timeout_s=0.5)
        got = client.fetch(key, namespace="counts")
        assert got is not None
        np.testing.assert_array_equal(got["v"], np.ones(3))
        assert RemoteCacheClient([dead], timeout_s=0.5).fetch(key) is None
        assert RemoteCacheClient([]).fetch(key) is None
    finally:
        worker.stop()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_worker_fault_escapes_without_reply(worker_fleet):
    """An injected fault mid-fold kills the connection, not a reply.

    In-process stand-in for process death: raise-mode faults are
    BaseException, escape the worker's ``except Exception`` reply path,
    and the client sees a dead connection (DistError) — the trigger for
    the coordinator's reassignment logic.
    """
    from repro.dist.client import DistError
    from repro.resilience import faults

    _, [(host, port)] = worker_fleet(1)
    client = WorkerClient(host, port, timeout_s=5.0)
    spec = {
        "model": "wl-svm",
        "dataset": {"name": "PTC_MR", "scale": 0.05, "seed": 0},
        "n_splits": 3,
        "seed": 0,
    }
    faults.install("raise@fold:0")
    try:
        with pytest.raises(DistError):
            client.request(
                {
                    "op": protocol.OP_RUN_FOLD,
                    "run_key": "runkey",
                    "run": spec,
                    "fold": 0,
                    "fold_seed": 1,
                },
                {
                    "train_idx": np.arange(4, 12),
                    "test_idx": np.arange(4),
                },
            )
    finally:
        faults.clear()
        client.close()

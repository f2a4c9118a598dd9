"""Client sides of the dist protocol: job connections and the KV tier.

:class:`WorkerClient` is the coordinator's handle on one worker — a
lazily-connected, lock-serialized request/reply socket.  Long-running
requests (``run_fold``) pass :meth:`WorkerClient.request` a ``tick``: the
reply is then polled with a short socket timeout and ``tick`` runs on
every timeout — the coordinator refreshes its journal fold claim there,
so a claim's heartbeat stays fresh exactly as long as the fold is truly
in flight.

:class:`RemoteCacheClient` is the peer-to-peer KV fetcher that plugs
into :class:`repro.cache.FeatureMapCache` as its ``remote`` tier: a
local miss turns into ``kv_get`` requests against the peers that might
hold the key.  Peer order rotates by key hash so load spreads; a dead or
misbehaving peer is skipped (and its connection dropped for reconnect),
never raised — the cache contract is that a miss is always an option.
"""

from __future__ import annotations

import socket
import threading

from repro import obs
from repro.dist import protocol
from repro.utils.wire import WireError

__all__ = ["DistError", "WorkerRejected", "WorkerClient", "RemoteCacheClient"]

#: Default per-request timeout for short control-plane ops (seconds).
DEFAULT_TIMEOUT_S = 30.0

#: Keepalive tick period while waiting on a long request (seconds).
KEEPALIVE_TICK_S = 0.5


class DistError(RuntimeError):
    """A dist request failed at the transport level (retryable)."""


class WorkerRejected(DistError):
    """The worker replied ``ok: false`` — a deterministic error.

    Carries the worker-side traceback.  The coordinator treats this
    like :class:`repro.parallel.FoldError`: surfaced, never retried —
    the same inputs would fail the same way anywhere.
    """


class WorkerClient:
    """One request/reply connection to a dist worker.

    Thread-safe: a lock serializes request/reply pairs, so the
    coordinator's dispatcher and tests can share a client.  ``close()``
    drops the socket; the next request reconnects.
    """

    def __init__(
        self, host: str, port: int, timeout_s: float = DEFAULT_TIMEOUT_S
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, header, arrays, tick):
        sock = self._connect()
        sent = protocol.send_message(sock, header, arrays)
        obs.counter("dist_bytes_sent_total").inc(sent)
        if tick is None:
            sock.settimeout(self.timeout_s)
            reply = protocol.recv_message(sock)
        else:
            # Short poll timeout + on_timeout hook: the frame buffer
            # survives ticks, so a slow reply is never torn by the poll.
            sock.settimeout(KEEPALIVE_TICK_S)
            reply = protocol.recv_message(sock, on_timeout=tick)
        if reply is None:
            raise DistError(f"worker {self.address} closed the connection")
        return reply

    def request(self, header: dict, arrays=None, *, tick=None) -> tuple[dict, dict]:
        """Send one request, await the reply ``(header, arrays)``.

        Raises :class:`DistError` on transport failure or when the
        worker reports ``ok: false``; the socket is dropped on transport
        errors so the next request starts clean.  A ``tick`` runs in the
        requesting thread roughly every ``KEEPALIVE_TICK_S`` seconds
        until the reply lands; a ``tick`` that raises aborts the wait
        (the coordinator bails out there when the heartbeat monitor
        declares the worker dead).
        """
        with self._lock:
            try:
                reply_header, reply_arrays = self._roundtrip(header, arrays, tick)
            except DistError:
                self._close_locked()
                raise
            except (OSError, WireError) as exc:
                self._close_locked()
                raise DistError(
                    f"worker {self.address} request {header.get('op')!r} "
                    f"failed: {exc}"
                ) from exc
        if not reply_header.get("ok"):
            raise WorkerRejected(
                f"worker {self.address} rejected {header.get('op')!r}: "
                f"{reply_header.get('error', 'unknown error')}"
            )
        return reply_header, reply_arrays

    def ping(self) -> dict:
        header, _ = self.request({"op": protocol.OP_PING})
        return header

    def shutdown(self) -> None:
        """Ask the worker to exit its accept loop (best effort)."""
        try:
            self.request({"op": protocol.OP_SHUTDOWN})
        except DistError:
            pass
        self.close()

    def __repr__(self) -> str:
        return f"WorkerClient({self.address})"


class RemoteCacheClient:
    """``fetch(key, namespace)`` against peer KV servers.

    The object a worker installs as its cache's ``remote`` tier.  Peers
    are tried in an order rotated by the key hash (cheap load
    spreading); the first hit wins.  All failures — refused connection,
    timeout, torn frame, worker-side error — skip to the next peer and
    ultimately return ``None``: a remote problem is a cache miss, never
    an exception into feature extraction.
    """

    def __init__(
        self, peers: list[tuple[str, int]], timeout_s: float = 2.0
    ) -> None:
        self.peers = [(host, int(port)) for host, port in peers]
        self._clients = {
            peer: WorkerClient(peer[0], peer[1], timeout_s=timeout_s)
            for peer in self.peers
        }

    def fetch(self, key: str, namespace: str = ""):
        if not self.peers:
            return None
        rotation = int(key[:8], 16) % len(self.peers) if key else 0
        for offset in range(len(self.peers)):
            peer = self.peers[(rotation + offset) % len(self.peers)]
            try:
                header, arrays = self._clients[peer].request(
                    {"op": protocol.OP_KV_GET, "key": key, "namespace": namespace}
                )
            except DistError:
                obs.counter("dist_kv_peer_errors_total").inc()
                continue
            if header.get("hit"):
                obs.counter("dist_kv_fetches_total").inc()
                return arrays
        return None

    def close(self) -> None:
        for client in self._clients.values():
            client.close()

    def __repr__(self) -> str:
        return f"RemoteCacheClient({[f'{h}:{p}' for h, p in self.peers]})"

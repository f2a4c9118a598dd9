"""The shared wire layer: envelopes, socket frames, message packing."""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.utils import wire
from repro.utils.wire import (
    MAGIC,
    PRELUDE_SIZE,
    WireError,
    blake2b_hexdigest,
    pack_message,
    recv_frame,
    seal,
    send_frame,
    unpack_message,
    unseal,
)

pytestmark = pytest.mark.dist


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------

def test_seal_unseal_roundtrip():
    for payload in (b"", b"x", b"hello world" * 1000):
        assert unseal(seal(payload)) == payload


def test_unseal_rejects_truncation():
    blob = seal(b"some payload bytes")
    with pytest.raises(WireError, match="truncated"):
        unseal(blob[: PRELUDE_SIZE - 1])
    with pytest.raises(WireError, match="length mismatch"):
        unseal(blob[:-3])


def test_unseal_rejects_corruption():
    blob = bytearray(seal(b"some payload bytes"))
    blob[-1] ^= 0xFF
    with pytest.raises(WireError, match="checksum"):
        unseal(bytes(blob))


def test_unseal_rejects_bad_magic_and_version():
    blob = seal(b"payload")
    with pytest.raises(WireError, match="magic"):
        unseal(b"XXXX" + blob[4:])
    bumped = blob[:4] + bytes([wire.WIRE_VERSION + 1]) + blob[5:]
    with pytest.raises(WireError, match="version"):
        unseal(bumped)


def test_unseal_enforces_size_cap():
    blob = seal(b"x" * 100)
    with pytest.raises(WireError, match="exceeds cap"):
        unseal(blob, max_bytes=10)


def test_shared_damage_corpus_never_unseals_silently():
    """The corpus shared with the serve codec (tests/wire_fuzz.py).

    Torn and garbage frames must raise; a single bit flip must either
    raise or — if it lands somewhere value-preserving — unseal to the
    original payload.  Silent payload corruption is never acceptable.
    """
    from tests.wire_fuzz import bitflipped_frames, garbage_frames, torn_frames

    payload = b"some payload bytes under a shared-corpus fuzz"
    blob = seal(payload)
    for damaged in (*torn_frames(blob), *garbage_frames(blob)):
        with pytest.raises(WireError):
            unseal(damaged)
    for damaged in bitflipped_frames(blob):
        try:
            assert unseal(damaged) == payload
        except WireError:
            pass


def test_blake2b_hexdigest_is_chunking_invariant():
    whole = blake2b_hexdigest([b"abcdef"])
    chunked = blake2b_hexdigest([b"ab", b"cd", b"ef"])
    assert whole == chunked
    assert whole != blake2b_hexdigest([b"abcdeg"])


# ----------------------------------------------------------------------
# Socket framing
# ----------------------------------------------------------------------

def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        for payload in (b"", b"first", b"second" * 4096):
            send_frame(a, payload)
        for payload in (b"", b"first", b"second" * 4096):
            assert recv_frame(b) == payload
        a.close()
        assert recv_frame(b) is None  # clean EOF at a frame boundary
    finally:
        b.close()


def test_recv_frame_raises_on_mid_frame_eof():
    a, b = socket.socketpair()
    try:
        blob = seal(b"a frame that will be cut short")
        a.sendall(blob[:-5])
        a.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_recv_frame_detects_corrupt_payload():
    a, b = socket.socketpair()
    try:
        blob = bytearray(seal(b"payload under test"))
        blob[-2] ^= 0x01
        a.sendall(bytes(blob))
        with pytest.raises(WireError, match="checksum"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_recv_frame_on_timeout_preserves_partial_frame():
    """Ticks must not tear a frame that arrives slower than the poll."""
    a, b = socket.socketpair()
    ticks = []
    payload = b"slow frame payload " * 64
    blob = seal(payload)

    def drip():
        for i in range(0, len(blob), 64):
            threading.Event().wait(0.02)
            a.sendall(blob[i : i + 64])

    sender = threading.Thread(target=drip, daemon=True)
    try:
        b.settimeout(0.005)  # far shorter than the full transfer
        sender.start()
        got = recv_frame(b, on_timeout=lambda: ticks.append(1))
        assert got == payload
        assert ticks  # the callback actually fired mid-frame
    finally:
        sender.join()
        a.close()
        b.close()


def test_recv_frame_without_on_timeout_propagates():
    a, b = socket.socketpair()
    try:
        b.settimeout(0.01)
        with pytest.raises(TimeoutError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Message packing
# ----------------------------------------------------------------------

def test_pack_unpack_numeric_arrays():
    header = {"op": "test", "n": 3}
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.linspace(0, 1, 5, dtype=np.float32),
    }
    out_header, out_arrays = unpack_message(pack_message(header, arrays))
    assert out_header == header
    assert set(out_arrays) == set(arrays)
    for name, arr in arrays.items():
        got = out_arrays[name]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)


def test_scalars_travel_as_one_element_arrays():
    # np.ascontiguousarray promotes 0-d to 1-d, so a bare scalar lands
    # as a one-element vector on the far side — values intact.
    _, arrays = unpack_message(pack_message({}, {"s": np.float64(2.5)}))
    assert arrays["s"].shape == (1,)
    assert arrays["s"].dtype == np.float64
    assert arrays["s"][0] == 2.5


def test_pack_message_preserves_noncontiguous_views():
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    view = base[:, ::2]  # non-contiguous
    _, arrays = unpack_message(pack_message({}, {"v": view}))
    np.testing.assert_array_equal(arrays["v"], view)


def test_pack_message_refuses_object_arrays():
    boxed = np.empty(1, dtype=object)
    boxed[0] = [{"a": 1}, {"b": 2}]
    with pytest.raises(WireError, match="object dtype"):
        pack_message({"op": "kv"}, {"counts": boxed, "ok": np.arange(3)})


class _CreatesFile:
    """Unpickling this runs ``open(path, "w")``: a canary that shows
    whether a receiver ever unpickles what a peer sent."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _pickled_message(header: dict, obj) -> bytes:
    """A message as older builds framed object arrays: a ``pickle``
    segment next to the JSON header."""
    import json
    import pickle

    blob = pickle.dumps(obj)
    manifest = [{"name": "x", "encoding": "pickle", "nbytes": len(blob)}]
    head = json.dumps({"header": header, "arrays": manifest}).encode()
    return struct.pack(">I", len(head)) + head + blob


def test_unpack_refuses_pickled_segments(tmp_path):
    canary = tmp_path / "unpickled"
    with pytest.raises(WireError, match="pickle"):
        unpack_message(_pickled_message({"op": "kv"}, _CreatesFile(canary)))
    assert not canary.exists()


def test_worker_never_unpickles_a_request(worker_fleet, tmp_path):
    """A ``ping`` carrying a pickled canary is refused on the request
    path: the connection drops, nothing runs, and the worker keeps
    answering new connections."""
    from repro.dist.client import WorkerClient

    _, [(host, port)] = worker_fleet(1)
    canary = tmp_path / "unpickled"
    with socket.create_connection((host, port), timeout=10) as sock:
        send_frame(sock, _pickled_message({"op": "ping"}, _CreatesFile(canary)))
        sock.settimeout(10)
        try:
            assert recv_frame(sock) is None  # dropped without a reply
        except (WireError, ConnectionResetError):
            pass
    assert not canary.exists()
    client = WorkerClient(host, port)
    try:
        assert client.ping()["ok"] is True
    finally:
        client.close()


def test_unpack_rejects_trailing_and_truncated_bytes():
    blob = pack_message({"op": "x"}, {"a": np.arange(4)})
    with pytest.raises(WireError, match="trailing"):
        unpack_message(blob + b"extra")
    with pytest.raises(WireError):
        unpack_message(blob[:-3])
    with pytest.raises(WireError):
        unpack_message(b"\x00\x00")


def test_unpack_rejects_inconsistent_manifest():
    # Hand-craft a manifest whose dtype/shape disagree with nbytes.
    import json

    head = json.dumps(
        {
            "header": {},
            "arrays": [
                {
                    "name": "a",
                    "encoding": "raw",
                    "dtype": "<i8",
                    "shape": [100],
                    "nbytes": 8,
                }
            ],
        }
    ).encode()
    blob = struct.pack(">I", len(head)) + head + b"\x00" * 8
    with pytest.raises(WireError, match="inconsistent"):
        unpack_message(blob)


def test_pack_rejects_unjsonable_header():
    with pytest.raises(WireError, match="JSON"):
        pack_message({"bad": object()})


def test_checkpoint_digest_is_reexported_from_wire():
    # The canonical home moved to repro.utils.wire; the historical
    # import site must keep working (and be the same function).
    from repro.resilience.checkpoint import blake2b_hexdigest as from_ckpt

    assert from_ckpt is blake2b_hexdigest

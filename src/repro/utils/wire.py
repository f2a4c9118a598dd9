"""Shared binary wire layer: checksummed envelopes + length-prefixed frames.

Every self-verifying byte artifact in the repo sits on the same three
primitives, factored out of :mod:`repro.resilience.checkpoint` and
:mod:`repro.core.persistence` so the serving stack and the distributed
runtime (:mod:`repro.dist`) cannot drift apart on framing:

* :func:`blake2b_hexdigest` — the one content-checksum primitive.
  Checkpoints digest their arrays through it, model files digest their
  pickled payload, and every dist protocol frame digests its body.
* **Envelope** (:func:`seal` / :func:`unseal`) — a fixed 30-byte prelude
  (magic, version, flags, BLAKE2b-128 digest, big-endian u64 length)
  followed by the payload.  Truncation, bit rot, or a torn copy is
  detected at open time, never interpreted.
* **Socket framing** (:func:`send_frame` / :func:`recv_frame`) — the
  same envelope streamed over a socket: length-prefixed, so message
  boundaries survive TCP coalescing, and checksummed, so a damaged
  frame raises :class:`WireError` instead of decoding into garbage.

On top of the byte layer, :func:`pack_message` / :func:`unpack_message`
give the dist protocol and the serve process pool's pipe
(:mod:`repro.serve.pool`) their payload shape: a JSON-able header dict
plus a ``{name: ndarray}`` tensor dict.  Every array travels as raw
little/native-endian C-order bytes described by a manifest (dtype,
shape); there is no pickle anywhere on the wire.  Object-dtype arrays
cannot be sent, and a segment in any other encoding is refused, so
decoding a message never runs code.  The checksum authenticates
*integrity*, not provenance (see docs/DISTRIBUTED.md).
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "PRELUDE_SIZE",
    "DEFAULT_MAX_FRAME",
    "WireError",
    "blake2b_hexdigest",
    "seal",
    "unseal",
    "send_frame",
    "recv_frame",
    "pack_message",
    "unpack_message",
]

#: Leading magic of every envelope/frame ("RePro Wire").
MAGIC = b"RPRW"

#: Envelope format version; bumped only on incompatible prelude changes.
WIRE_VERSION = 1

#: Digest size (bytes) of the BLAKE2b content checksum in the prelude.
_DIGEST_SIZE = 16

_PRELUDE = struct.Struct(f">4sBB{_DIGEST_SIZE}sQ")

#: Fixed byte length of the envelope prelude.
PRELUDE_SIZE = _PRELUDE.size

#: Default per-frame size ceiling (1 GiB): a corrupt or hostile length
#: field must not make a receiver allocate unboundedly.
DEFAULT_MAX_FRAME = 1 << 30


class WireError(RuntimeError):
    """A frame or envelope is truncated, corrupt, or from another format."""


def blake2b_hexdigest(chunks, digest_size: int = _DIGEST_SIZE) -> str:
    """BLAKE2b hex digest over an iterable of byte chunks.

    The shared content-checksum primitive for self-verifying artifacts:
    checkpoints digest their arrays through it,
    :mod:`repro.core.persistence` digests the pickled model payload so
    :mod:`repro.serve` only ever loads byte-exact models, and the dist
    wire protocol digests every frame body.
    """
    h = hashlib.blake2b(digest_size=digest_size)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _digest(payload: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(payload)
    return h.digest()


# ----------------------------------------------------------------------
# Envelope: prelude + payload as one byte string
# ----------------------------------------------------------------------

def seal(payload: bytes) -> bytes:
    """Wrap ``payload`` in a checksummed envelope (prelude + payload)."""
    return _PRELUDE.pack(
        MAGIC, WIRE_VERSION, 0, _digest(payload), len(payload)
    ) + payload


def _parse_prelude(prelude: bytes, max_bytes: int) -> tuple[bytes, int]:
    """Validate a prelude; returns ``(expected_digest, payload_length)``."""
    magic, version, _flags, digest, length = _PRELUDE.unpack(prelude)
    if magic != MAGIC:
        raise WireError(f"bad wire magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if length > max_bytes:
        raise WireError(f"frame of {length} bytes exceeds cap {max_bytes}")
    return digest, length


def unseal(blob: bytes, max_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    """Open an envelope produced by :func:`seal`, verifying the checksum."""
    if len(blob) < PRELUDE_SIZE:
        raise WireError(f"envelope truncated at {len(blob)} bytes")
    digest, length = _parse_prelude(blob[:PRELUDE_SIZE], max_bytes)
    payload = blob[PRELUDE_SIZE:]
    if len(payload) != length:
        raise WireError(
            f"envelope length mismatch: prelude says {length}, "
            f"got {len(payload)} payload bytes"
        )
    if _digest(payload) != digest:
        raise WireError("envelope checksum mismatch: payload is corrupt")
    return payload


# ----------------------------------------------------------------------
# Socket framing
# ----------------------------------------------------------------------

def send_frame(sock, payload: bytes) -> int:
    """Send one sealed frame over ``sock``; returns bytes written."""
    blob = seal(payload)
    sock.sendall(blob)
    return len(blob)


def _recv_exact(sock, n: int, *, at_boundary: bool, on_timeout=None) -> bytes | None:
    """Read exactly ``n`` bytes.

    Returns ``None`` on a clean EOF *before any byte* when
    ``at_boundary`` (the peer closed between frames); raises
    :class:`WireError` on EOF anywhere else (a torn frame).  With
    ``on_timeout`` set, a socket timeout invokes it and *continues the
    read with the partial buffer intact* — a slow frame is never torn by
    the caller's poll interval; without it, timeouts propagate untouched
    (flow control, not corruption).
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except TimeoutError:
            if on_timeout is None:
                raise
            on_timeout()
            continue
        if not chunk:
            if at_boundary and not buf:
                return None
            raise WireError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf += chunk
    return bytes(buf)


def recv_frame(
    sock, max_bytes: int = DEFAULT_MAX_FRAME, on_timeout=None
) -> bytes | None:
    """Receive one frame; ``None`` when the peer closed between frames.

    Verifies the checksum before returning — a damaged frame surfaces as
    :class:`WireError` here, never as misparsed payload downstream.
    ``on_timeout`` turns socket timeouts into callback ticks (see
    :func:`_recv_exact`) — the dist client heartbeats fold claims there
    while a worker computes.
    """
    prelude = _recv_exact(
        sock, PRELUDE_SIZE, at_boundary=True, on_timeout=on_timeout
    )
    if prelude is None:
        return None
    digest, length = _parse_prelude(prelude, max_bytes)
    payload = (
        _recv_exact(sock, length, at_boundary=False, on_timeout=on_timeout)
        if length
        else b""
    )
    if _digest(payload) != digest:
        raise WireError("frame checksum mismatch: payload is corrupt")
    return payload


# ----------------------------------------------------------------------
# Message payloads: JSON header + tensor dict
# ----------------------------------------------------------------------

def pack_message(header: dict, arrays: dict[str, np.ndarray] | None = None) -> bytes:
    """Encode ``(header, arrays)`` as one frame payload.

    ``header`` must be JSON-able; ``arrays`` maps names to ndarrays,
    shipped as described raw bytes.  Raises :class:`WireError` on an
    object-dtype array, which has no raw form.
    """
    arrays = arrays or {}
    manifest: list[dict] = []
    segments: list[bytes] = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.hasobject:
            raise WireError(f"array {name!r} has object dtype: no raw form")
        blob = arr.tobytes()
        manifest.append(
            {"name": name, "encoding": "raw", "dtype": arr.dtype.str,
             "shape": list(arr.shape), "nbytes": len(blob)}
        )
        segments.append(blob)
    try:
        head = json.dumps(
            {"header": header, "arrays": manifest}, sort_keys=True
        ).encode()
    except (TypeError, ValueError) as exc:
        raise WireError(f"message header is not JSON-able: {exc}") from None
    return struct.pack(">I", len(head)) + head + b"".join(segments)


def unpack_message(payload: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a :func:`pack_message` payload into ``(header, arrays)``.

    Only ``raw`` segments decode; any other encoding (the pickled
    segments older builds sent) raises :class:`WireError`.
    """
    if len(payload) < 4:
        raise WireError("message truncated before header length")
    (head_len,) = struct.unpack(">I", payload[:4])
    if 4 + head_len > len(payload):
        raise WireError("message truncated inside JSON header")
    try:
        head = json.loads(payload[4 : 4 + head_len])
        header = head["header"]
        manifest = head["arrays"]
    except (ValueError, KeyError, TypeError) as exc:
        raise WireError(f"malformed message header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(manifest, list):
        raise WireError("malformed message header: wrong container types")
    arrays: dict[str, np.ndarray] = {}
    offset = 4 + head_len
    for entry in manifest:
        try:
            name = entry["name"]
            encoding = entry["encoding"]
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed array manifest entry: {exc}") from None
        if offset + nbytes > len(payload):
            raise WireError(f"array {name!r} extends past the message end")
        blob = payload[offset : offset + nbytes]
        offset += nbytes
        if encoding != "raw":
            raise WireError(f"array {name!r} is {encoding!r}-encoded; only raw decodes")
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"bad raw-array manifest for {name!r}: {exc}") from None
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        if dtype.hasobject or expected != nbytes:
            raise WireError(f"raw-array manifest for {name!r} is inconsistent")
        arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    if offset != len(payload):
        raise WireError(f"{len(payload) - offset} trailing bytes after arrays")
    return header, arrays

"""Content-addressed cache for vertex feature maps and encoded tensors.

The paper's evaluation grid (Tables 1-5: 15 datasets x 3 feature maps x
10-fold CV) recomputes every vertex feature map and every ``(w*r, m)``
input tensor from scratch on each invocation, and that preprocessing —
not the CNN — dominates wall clock at benchmark scale.  This module
memoizes those artifacts across calls *and* across processes, in two
namespaces: ``counts`` (per-vertex substructure count tables, from
which the vocabulary and the feature rows are rebuilt) and ``enc`` (the
encoding's feature rows plus its slot -> vertex table):

* :func:`stable_hash` canonically encodes nested Python/numpy/graph
  values so equal *content* always produces the same digest — dict
  insertion order, list vs tuple, and object identity never matter.
* Cache keys combine a dataset fingerprint (graph structure + labels),
  the extractor class + hyperparameters, and any encoder parameters, so
  changing ``k``, ``h``, ``max_distance``, ``seed``, ``r`` … changes the
  key: entries are invalidated by construction, never by TTL.
* :class:`FeatureMapCache` stores ``{name: ndarray}`` payloads of plain
  arrays (never pickles) in an optional on-disk ``.npz`` tier laid out as
  ``<cache_dir>/<key[:2]>/<key>.npz`` (atomic writes) fronted by an
  in-memory LRU tier.  A put is held in memory only when it is not on
  disk, so writing never pins what the disk already holds; a disk hit is
  promoted into the memory tier (as memory-mapped views where the
  members allow).  A
  corrupted or unreadable file is treated as a miss — the entry is
  dropped and the caller recomputes; the cache never raises into the
  pipeline.

A process-wide default cache is configured with :func:`configure` (the
CLI's ``--cache-dir``) or the ``REPRO_CACHE_DIR`` environment variable;
:func:`get_cache` returns it (or ``None`` — caching disabled, the
default).  ``repro cache stats|clear`` exposes the disk tier on the
command line.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import zipfile
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.graph.graph import Graph
from repro.resilience import faults

__all__ = [
    "stable_hash",
    "dataset_fingerprint",
    "extractor_fingerprint",
    "cache_key",
    "CacheStats",
    "FeatureMapCache",
    "configure",
    "get_cache",
    "reset_default_cache",
]

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default capacity (entries) of the in-memory LRU tier.
DEFAULT_MEMORY_ITEMS = 32


# ----------------------------------------------------------------------
# Canonical content hashing
# ----------------------------------------------------------------------

def _feed(h, obj) -> None:
    """Feed a canonical, type-tagged byte encoding of ``obj`` into ``h``.

    Dicts are encoded in sorted-key order (insertion order is
    irrelevant); lists and tuples share one tag (sequences compare by
    content); numpy arrays hash dtype + shape + raw bytes; graphs hash
    vertex count, edge list and labels.  Unknown types are rejected so a
    silent ``repr``-drift can never alias two different configurations.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s" + str(len(data)).encode() + b":" + data)
    elif isinstance(obj, bytes):
        h.update(b"b" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, Graph):
        h.update(b"G" + str(obj.n).encode())
        h.update(obj.edges.tobytes())
        h.update(obj.labels.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (set, frozenset)):
        h.update(b"e" + str(len(obj)).encode())
        for digest in sorted(stable_hash(item) for item in obj):
            h.update(digest.encode())
    elif isinstance(obj, dict):
        h.update(b"d" + str(len(obj)).encode())
        entries = sorted(
            (stable_hash(key), key, value) for key, value in obj.items()
        )
        for key_digest, _, value in entries:
            h.update(key_digest.encode())
            _feed(h, value)
    else:
        raise TypeError(
            f"stable_hash cannot canonically encode {type(obj).__name__!r}"
        )


def stable_hash(obj) -> str:
    """Hex digest of the canonical encoding of ``obj`` (32 chars).

    Equal content gives equal digests regardless of dict ordering,
    sequence type (list vs tuple), numpy scalar vs Python number, or
    object identity.
    """
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def dataset_fingerprint(graphs: list[Graph]) -> str:
    """Content digest of an ordered list of graphs.

    Order matters (cached payloads are per-position matrices); two lists
    of structurally identical graphs in the same order fingerprint the
    same even when the ``Graph`` objects differ by identity.
    """
    return stable_hash(list(graphs))


def extractor_fingerprint(extractor) -> str:
    """Digest of an extractor's class + hyperparameters (+ algo version).

    Uses the extractor's ``cache_params()`` when available (the
    :class:`~repro.features.vertex_maps.VertexFeatureExtractor`
    contract) and falls back to its public instance attributes, so any
    hyperparameter change (``k``, ``h``, ``max_distance``, ``seed`` …)
    changes the digest.

    An extractor class may additionally declare a ``CACHE_VERSION``
    string: it is folded into the digest *only when present*, so
    declaring one the first time an extractor's *output values* change
    (while its hyperparameters do not) invalidates every payload cached
    under the old scheme without disturbing any other extractor's keys.
    ``WLVertexFeatures`` uses this for its color-scheme generation — the
    integer radix remap produces partition-equivalent but numerically
    different colors than the original blake2b hashing, and a stale
    ``counts`` hit would mix old and new color keys across
    train/predict extract calls.
    """
    if hasattr(extractor, "cache_params"):
        params = extractor.cache_params()
    else:
        params = {
            key: value
            for key, value in vars(extractor).items()
            if not key.startswith("_") and not key.endswith("_")
        }
    payload = {"class": type(extractor).__qualname__, "params": params}
    version = getattr(type(extractor), "CACHE_VERSION", None)
    if version is not None:
        payload["algo"] = version
    return stable_hash(payload)


def cache_key(namespace: str, *parts) -> str:
    """Compose a namespaced content-addressed key ("counts", "enc")."""
    return stable_hash([namespace, list(parts)])


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`FeatureMapCache` instance."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    mmap_hits: int = 0
    remote_hits: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0
    by_namespace: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "mmap_hits": self.mmap_hits,
            "remote_hits": self.remote_hits,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
            "by_namespace": dict(self.by_namespace),
        }

    def diff(self, before: dict) -> dict:
        """What happened since ``before`` (an earlier :meth:`as_dict`).

        Worker processes snapshot the stats they inherited at fork time
        and ship only the delta back, so parent totals never
        double-count.
        """
        now = self.as_dict()
        delta = {
            key: now[key] - before.get(key, 0)
            for key in now
            if key != "by_namespace"
        }
        names = set(now["by_namespace"]) | set(before.get("by_namespace", {}))
        delta["by_namespace"] = {
            name: now["by_namespace"].get(name, 0)
            - before.get("by_namespace", {}).get(name, 0)
            for name in names
        }
        return delta

    def merge(self, delta: dict | None) -> None:
        """Fold a :meth:`diff` delta (e.g. from a worker) into this object."""
        if not delta:
            return
        for key, value in delta.items():
            if key == "by_namespace":
                self.by_namespace.update(value)
            else:
                setattr(self, key, getattr(self, key) + value)


def _mmap_npz(path: Path) -> dict[str, np.ndarray]:
    """Memory-map every member of an uncompressed ``.npz`` in place.

    ``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for
    ``.npz`` containers, so this walks the zip structure by hand: for
    each ``ZIP_STORED`` member, the array data lives at a fixed span of
    the archive file (local header + name + extra fields, then the
    ``.npy`` header, then raw little-endian array bytes), which
    ``np.memmap`` can map read-only with the right dtype/shape/offset.

    Raises on anything that cannot be mapped — compressed members,
    object dtypes, unknown npy versions, or structural damage (bad
    magic, member span past EOF).  Callers treat a raise as "use the
    copying reader instead".

    Everything — stat, zip parse, and the maps themselves — goes
    through ONE open handle.  Opening the path per member would let a
    concurrent atomic replace swap the inode mid-read and hand back a
    payload stitched from two different writes.
    """
    payload: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        zf = zipfile.ZipFile(fh)
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename}: compressed member")
            fh.seek(info.header_offset)
            local = fh.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ValueError(f"{info.filename}: bad local file header")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ValueError(f"{info.filename}: npy format {version}")
            if dtype.hasobject:
                raise ValueError(f"{info.filename}: object dtype")
            data_offset = fh.tell()
            n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if data_offset + n_items * dtype.itemsize > file_size:
                raise ValueError(f"{info.filename}: member extends past EOF")
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            arr = np.memmap(
                fh, dtype=dtype, mode="r", offset=data_offset, shape=shape,
                order="F" if fortran else "C",
            )
            payload[name] = arr
    return payload


class FeatureMapCache:
    """Two-tier (memory LRU + optional disk) array-payload cache.

    Payloads are ``{name: ndarray}`` dicts of plain arrays; nothing is
    pickled.  All reads that fail for any reason — missing file,
    truncation, a pickled member, wrong format — count as misses, drop
    the offending file, and let the caller recompute.

    Parameters
    ----------
    cache_dir:
        Directory for the disk tier; ``None`` keeps the cache
        memory-only.
    memory_items:
        Max entries held by the in-memory LRU tier (0 disables it).
    remote:
        Optional third tier consulted after memory and disk miss: any
        object with ``fetch(key, namespace) -> payload | None`` (the
        dist KV client, :class:`repro.dist.client.RemoteCacheClient`).
        A remote hit is copied into the local tiers so it is paid for
        once; remote errors are swallowed and count as misses — the
        cache never raises into the pipeline, network or not.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        memory_items: int = DEFAULT_MEMORY_ITEMS,
        remote=None,
    ) -> None:
        if memory_items < 0:
            raise ValueError(f"memory_items must be >= 0, got {memory_items}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.memory_items = memory_items
        self.remote = remote
        self.stats = CacheStats()
        self._memory: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._lock = threading.RLock()
        self._writes = 0

    def _next_write_index(self) -> int:
        """0-based index of this disk-write attempt (fault-plan matching)."""
        with self._lock:
            index = self._writes
            self._writes += 1
        return index

    # -- paths ----------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.npz"

    # -- read -----------------------------------------------------------
    def get(
        self, key: str, namespace: str = "", local_only: bool = False
    ) -> dict[str, np.ndarray] | None:
        """Payload stored under ``key``, or ``None`` (a miss, recompute).

        ``local_only`` skips the remote tier — the dist KV server
        answers peer lookups with local-only reads so two workers that
        both miss can never recurse into each other.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self._record_hit(namespace, memory=True)
                return payload
        if self.cache_dir is not None:
            path = self._path(key)
            if path.exists():
                try:
                    payload = self._read_disk(path)
                except Exception:
                    # Corrupted / truncated / unreadable: drop and recompute.
                    self.stats.errors += 1
                    try:
                        path.unlink()
                    except OSError:
                        pass
                else:
                    self._memory_store(key, payload)
                    self._record_hit(namespace, memory=False)
                    return payload
        if self.remote is not None and not local_only:
            try:
                payload = self.remote.fetch(key, namespace)
            except Exception:
                payload = None  # a dead peer is a miss, never an error
                self.stats.errors += 1
            if payload is not None:
                # Pay the network cost once: land the payload locally,
                # held in memory only when it is not on disk (as in put).
                if self.cache_dir is None or not self._write_disk(key, payload):
                    self._memory_store(key, payload)
                self.stats.hits += 1
                self.stats.remote_hits += 1
                self.stats.by_namespace[f"{namespace or 'any'}_hits"] += 1
                obs.counter("cache_hits_total").inc()
                obs.counter("cache_remote_hits_total").inc()
                return payload
        self.stats.misses += 1
        self.stats.by_namespace[f"{namespace or 'any'}_misses"] += 1
        obs.counter("cache_misses_total").inc()
        return None

    def _read_disk(self, path: Path) -> dict[str, np.ndarray]:
        """Read a disk entry, memory-mapping members when possible.

        ``np.savez`` stores members uncompressed, so each ``.npy`` member
        can be mapped in place (``np.memmap`` over the member's data
        span) instead of copied into fresh arrays — a disk hit then
        costs page-table entries, not resident bytes, which is what lets
        the streaming pipeline hold "hot" encoded shards far beyond RAM.
        Mapped arrays are read-only views backed by the cache file.
        Compressed containers and any file the mapper cannot parse fall
        back to a copying ``np.load`` that refuses pickled members.

        The mmap attempt validates the full zip structure (central
        directory, local headers, npy headers, member spans inside the
        file), so a truncated or damaged entry fails *here* — cleanly,
        at map time, never as a later SIGBUS — and the ``np.load``
        fallback then fails on the same damage, turning the read into a
        miss for the caller.
        """
        try:
            payload = _mmap_npz(path)
        except Exception:
            pass  # not mappable (compressed, damaged, pickled)
        else:
            self.stats.mmap_hits += 1
            return payload
        with np.load(path) as npz:
            return {name: npz[name] for name in npz.files}

    # -- write ----------------------------------------------------------
    def put(self, key: str, payload: dict[str, np.ndarray], namespace: str = "") -> None:
        """Store ``payload`` under ``key`` (best effort).

        With a disk tier the payload goes to disk only: a later
        :meth:`get` maps it back as a read-only view instead of the
        memory tier pinning the caller's arrays.  The memory tier keeps
        it when there is no disk tier or the disk write failed.  An
        object-dtype member, which only pickle could store, raises.
        """
        for name, arr in payload.items():
            if np.asarray(arr).dtype.hasobject:
                raise TypeError(f"cache payload member {name!r} has object dtype")
        if self.cache_dir is None:
            self._memory_store(key, payload)
        else:
            # Fault-injection point: InjectedFault is a BaseException, so
            # the best-effort ``except Exception`` inside _write_disk
            # cannot swallow a deliberately injected crash
            # (tests/resilience relies on this); "corrupt" mode tears the
            # file post-rename instead.
            mode = faults.check("cache_write", self._next_write_index())
            if not self._write_disk(key, payload, corrupt=mode == "corrupt"):
                self._memory_store(key, payload)
                return
            with self._lock:
                self._memory.pop(key, None)  # never serve a replaced payload
        self.stats.stores += 1
        self.stats.by_namespace[f"{namespace or 'any'}_stores"] += 1

    def _write_disk(
        self, key: str, payload: dict[str, np.ndarray], corrupt: bool = False
    ) -> bool:
        """Atomically write one disk entry; False on (swallowed) failure.

        The remote-hit backfill path calls this directly — without the
        ``cache_write`` fault point or store accounting, which belong to
        caller-initiated :meth:`put` only.
        """
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **payload)
                os.replace(tmp, path)  # atomic: readers never see partial files
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if corrupt:
                with open(path, "r+b") as fh:
                    fh.truncate(max(1, path.stat().st_size // 2))
        except Exception:
            self.stats.errors += 1  # a failed write must never crash a run
            return False
        return True

    def _memory_store(self, key: str, payload: dict[str, np.ndarray]) -> None:
        if self.memory_items <= 0:
            return
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_items:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def _record_hit(self, namespace: str, memory: bool) -> None:
        self.stats.hits += 1
        if memory:
            self.stats.memory_hits += 1
        else:
            self.stats.disk_hits += 1
        self.stats.by_namespace[f"{namespace or 'any'}_hits"] += 1
        obs.counter("cache_hits_total").inc()

    # -- maintenance ----------------------------------------------------
    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed."""
        with self._lock:
            self._memory.clear()
        removed = 0
        for path in self._disk_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.errors += 1
        return removed

    def _disk_entries(self) -> list[Path]:
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        return sorted(self.cache_dir.glob("??/*.npz"))

    def disk_usage(self) -> tuple[int, int]:
        """``(entry_count, total_bytes)`` of the disk tier."""
        entries = self._disk_entries()
        return len(entries), sum(p.stat().st_size for p in entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __repr__(self) -> str:
        where = str(self.cache_dir) if self.cache_dir else "memory-only"
        return (
            f"FeatureMapCache({where}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------

_default_cache: FeatureMapCache | None = None


def configure(
    cache_dir: str | os.PathLike | None = None,
    memory_items: int = DEFAULT_MEMORY_ITEMS,
) -> FeatureMapCache:
    """Install (and return) the process-wide default cache.

    ``cache_dir=None`` yields a memory-only cache — still useful across
    CV folds within one process.
    """
    global _default_cache
    _default_cache = FeatureMapCache(cache_dir=cache_dir, memory_items=memory_items)
    return _default_cache


def get_cache() -> FeatureMapCache | None:
    """The default cache, or ``None`` when caching is disabled.

    Resolution order: an explicit :func:`configure` call, then the
    ``REPRO_CACHE_DIR`` environment variable, else ``None``.
    """
    global _default_cache
    if _default_cache is not None:
        return _default_cache
    env_dir = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env_dir:
        _default_cache = FeatureMapCache(cache_dir=env_dir)
        return _default_cache
    return None


def reset_default_cache() -> None:
    """Forget the default cache (tests and CLI teardown)."""
    global _default_cache
    _default_cache = None

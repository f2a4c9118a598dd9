"""Streaming out-of-core dataset pipeline.

Lazy graph generation (:mod:`repro.datasets.streaming`), cache-spilled
encoded shards with memory-mapped reloads (:mod:`repro.stream.shards`),
and a streamed training entry point bitwise-equal to the materialized
fit (:mod:`repro.stream.fit`).  Design notes: ``docs/STREAMING.md``.
"""

from repro.stream.fit import fit_stream
from repro.stream.shards import EncodedShardStore, make_spool_cache, partition_bounds

__all__ = [
    "EncodedShardStore",
    "make_spool_cache",
    "partition_bounds",
    "fit_stream",
]

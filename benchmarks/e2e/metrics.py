"""The metric catalogue and the statistics the benchmark reports.

Every workload prints every metric below, so results of different
workloads share one schema.  ``BENCHMARK.json`` at the repository root
repeats the names and units and adds each end-to-end metric's bound;
``test_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

import numpy as np

#: (name, unit, better).  The operation a latency refers to depends on
#: the workload; README.md lists it for each one.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput", "graphs/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Self time of each layer as a share of the traced operations' wall
#: time; the shares of one run add up to 100 with ``unattributed``.
SHARES = (
    "serve.http.parse",
    "serve.batcher.queue_wait",
    "serve.batcher.batch_wait",
    "serve.infer.self",
    "serve.http.serialize",
    "unattributed",
    "features.extract",
    "features.vectorize",
    "alignment.centrality",
    "alignment.union_order",
    "receptive_field.fields",
    "pipeline.encode.self",
    "model.self",
    "cache.get",
    "cache.put",
    *(
        f"nn.{layer}.{way}"
        for way in ("fwd", "bwd")
        for layer in ("L0_Conv1D", "L2_Conv1D", "L4_Conv1D", "L7_Dense", "L10_Dense", "other")
    ),
    "nn.optimizer.step",
    "nn.trainer.self",
)

PER_LAYER = (
    *((name, "%", "lower") for name in SHARES),
    ("alignment.centrality.calls_per_graph", "calls/graph", "lower"),
    ("serve.batcher.batch_size", "graphs", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.errors", "count", "lower"),
    ("cache.disk_mb", "MiB", "lower"),
    ("loadgen.late_share", "%", "lower"),
    ("loadgen.max_rps_within_slo", "1/s", "higher"),
    ("tracing_overhead", "%", "lower"),
)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

"""What every workload shares: its run context, its result and its checks."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchmarks.e2e import tracing
from benchmarks.e2e.metrics import percentile


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path  # working directory of this run; removed when it ends


@dataclass
class Result:
    """Operations attempted and failed, and the samples of a run or of
    one part of it.

    The end-to-end metrics are computed from the samples (:meth:`metrics`)
    once every part of a run has been merged in, so their medians are
    taken over the pooled samples.  ``work`` holds ``[graphs, seconds]``
    per timed stretch of work; throughput is the ratio of their sums.
    ``readings`` holds further samples whose medians the report prints.
    ``layers`` maps a per-layer metric to its value in a traced run (a
    layer the run never entered is absent and reads 0); ``notes`` holds
    further readings of a run made in one process.
    """

    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    work: list[list[float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    readings: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        """Count one operation; a failed correctness check fails it."""
        self.attempted += 1
        self.failed += not ok

    def reading(self, name: str, value: float) -> None:
        self.readings.setdefault(name, []).append(value)

    def merge(self, part: Result) -> None:
        self.attempted += part.attempted
        self.failed += part.failed
        self.setups += part.setups
        self.latencies += part.latencies
        self.work += part.work
        self.peak_rss_mb = max(self.peak_rss_mb, part.peak_rss_mb)
        for name, values in part.readings.items():
            self.readings.setdefault(name, []).extend(values)
        self.layers.update(part.layers)
        self.notes.update(part.notes)

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Each end-to-end metric as ``(value, samples)``."""
        graphs = sum(g for g, _ in self.work)
        seconds = sum(s for _, s in self.work)
        return {
            "setup_s": (median(self.setups), len(self.setups)),
            "latency_p50_ms": (1000.0 * percentile(self.latencies, 50), len(self.latencies)),
            "throughput": (graphs / seconds, len(self.work)),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }

    def report(self) -> dict:
        """Further readings for the printed report and the result file.

        The p90 latency is not a gated metric: over ten runs on a shared
        2-CPU machine its spread reached a quarter of its median.
        """
        out = {"latency_p90_ms": 1000.0 * percentile(self.latencies, 90)} if self.latencies else {}
        out.update({f"{name} (median of {len(v)})": median(v) for name, v in self.readings.items()})
        out.update(self.notes)
        return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def timed(fn, *args):
    """``(seconds, fn(*args))``."""
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def median(values) -> float:
    return float(statistics.median(values))


def warm_up(ctx: Context, operation, seconds: float = 1.0) -> None:
    """Run ``operation()`` untimed until ``seconds`` (a tenth of a smoke
    run's) have passed, at least once.

    The first passes of a fresh process run slower while the allocator
    and the memory they touch settle; timing them moved medians by more
    than the run-to-run spread.
    """
    end = time.perf_counter() + (seconds / 10 if ctx.smoke else seconds)
    operation()
    while time.perf_counter() < end:
        operation()


def rounds(ctx: Context):
    """Yield, per operation, whether to trace it, until the run's time is up.

    A traced run alternates in pairs — plain, traced, traced, plain, … —
    and ends on a whole pair, so drift during the run weighs on both
    sides of the tracing-overhead comparison alike.
    """
    end = time.perf_counter() + ctx.seconds
    k = 0
    while k == 0 or time.perf_counter() < end or (ctx.trace and k % 2):
        yield ctx.trace and k % 4 in (1, 2)
        k += 1


@contextmanager
def operation(tracer: tracing.Tracer | None):
    """An ``op`` root span with the wrappers installed, or nothing."""
    if tracer is None:
        yield
        return
    with tracing.traced(tracer), tracer.span("op"):
        yield


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """Traced ÷ untraced median operation time − 1, in percent."""
    return 100.0 * (median(traced) / median(plain) - 1.0)

"""Streamed vs materialized training: throughput and peak memory.

Runs the same ``deepmap-wl`` fit twice in fresh subprocesses — once
materialized (``fit`` on the full graph list and one resident encoding:
the sparse vertex feature table and its row-index table), once streamed
(``fit_stream`` regenerating shards from seeds, spilling encodes to a
spool cache and memory-mapping them back per batch) — and records to
``BENCH_stream.json`` in the repo root:

* ``stream_throughput`` — streamed-over-materialized graphs/sec ratio
  (the ``speedup`` field the regression gate tracks).  Streaming
  re-derives every graph from its seed and round-trips encodings through
  the cache, all on the caller's thread, so the ratio sits well below
  1.0 (0.38 in ``BENCH_stream.json``); the gate's floor is 0.3.
* ``stream_peak_rss`` — materialized-over-streamed peak-RSS *growth*
  ratio (child RSS at exit minus interpreter baseline).  This is the
  memory advantage that lets the streamed path train datasets the
  materialized one cannot hold; bigger is better.

Both children must agree *bitwise* on the training loss curve — the
bench refuses to time two pipelines that are not running the same
numbers (see tests/equivalence/test_stream_equiv.py for the full parity
matrix).  A full run also records a ``sustained`` block: graphs/sec and
peak RSS for a streamed-only fit at 100x the materialized scale.

Speedups are machine-relative ratios (both sides on the same box), so
the JSON is comparable across machines; ``scripts/check_bench_regression.py
--current BENCH_stream.json`` gates on it, including the absolute
floors declared under ``config.acceptance.floors``.

``REPRO_BENCH_SMOKE=1`` shrinks the dataset and skips the floor
assertions — wiring checks only, for the `stream` test tier.

Run with ``pytest benchmarks/bench_stream_pipeline.py -q`` or
``python -m benchmarks.bench_stream_pipeline`` from the repo root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks._common import print_header, print_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Smoke runs exercise the harness without clobbering the committed
#: full-scale artifact that the regression gate treats as baseline.
_ARTIFACT = "BENCH_stream.smoke.json" if SMOKE else "BENCH_stream.json"
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / _ARTIFACT

#: Head-to-head configuration: big enough that the materialized fit's
#: resident data dominates the child's footprint, small enough to run
#: both ways.
_SCALE = 0.03 if SMOKE else 5.0
_EPOCHS = 1 if SMOKE else 2
_SHARD_SIZE = 4 if SMOKE else 64
#: Streamed-only sustained run: 100x the materialized-suite scale.
_SUSTAINED_SCALE = 44.0

#: Absolute acceptance floors (gated by check_bench_regression.py):
#: streaming may cost at most ~3x throughput (it regenerates graphs per
#: pass and round-trips encodings through the cache) and must cut peak
#: RSS growth by at least 2x at the head-to-head scale.
STAGE_FLOORS = {"stream_throughput": 0.3, "stream_peak_rss": 2.0}

_RESULTS: dict[str, dict] = {}

_CHILD = r"""
import json, sys, time
from repro.core import deepmap_wl
from repro.datasets import make_dataset
from repro.obs.resources import sample_resources

mode, scale, epochs, shard_size = (
    sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
baseline_rss = sample_resources()["peak_rss_bytes"]  # interpreter + imports
model = deepmap_wl(h=2, r=5, epochs=epochs, seed=0, max_features=256)
start = time.perf_counter()
if mode == "stream":
    data = make_dataset("MUTAG", scale=scale, seed=0, stream=True)
    n = len(data)
    model.fit_stream(data, shard_size=shard_size)
else:
    data = make_dataset("MUTAG", scale=scale, seed=0)
    n = len(data)
    model.fit(data.graphs, data.y)
elapsed = time.perf_counter() - start
peak = sample_resources()["peak_rss_bytes"]
print(json.dumps({
    "n": n,
    "seconds": elapsed,
    "graphs_per_sec": n / elapsed,
    "peak_rss_bytes": peak,
    "rss_growth_bytes": max(peak - baseline_rss, 1),
    "loss": model.history_.loss,
}))
"""


def _run_child(mode: str, scale: float) -> dict:
    """One fit in a fresh interpreter; returns its self-reported stats.

    A subprocess per side keeps the RSS comparison honest: each child's
    peak is its own fit's working set, not whatever the bench process
    allocated earlier.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(scale), str(_EPOCHS),
         str(_SHARD_SIZE)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _flush() -> None:
    results: dict = {}
    if RESULT_PATH.exists():
        try:
            results = json.loads(RESULT_PATH.read_text())
        except (OSError, ValueError):
            results = {}
    results["config"] = {
        "dataset": "MUTAG",
        "scale": _SCALE,
        "epochs": _EPOCHS,
        "shard_size": _SHARD_SIZE,
        "sustained_scale": _SUSTAINED_SCALE,
        "smoke": SMOKE,
        "acceptance": {"floors": dict(STAGE_FLOORS)},
    }
    results.setdefault("stages", {}).update(_RESULTS)
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def test_stream_vs_materialized():
    print_header("Streamed vs materialized fit (subprocess per side)")
    materialized = _run_child("materialize", _SCALE)
    streamed = _run_child("stream", _SCALE)
    assert streamed["n"] == materialized["n"]
    # Refuse to time two pipelines running different numbers.
    assert streamed["loss"] == materialized["loss"], (
        "streamed loss curve diverged from materialized"
    )
    throughput_ratio = (
        streamed["graphs_per_sec"] / materialized["graphs_per_sec"]
    )
    rss_ratio = (
        materialized["rss_growth_bytes"] / streamed["rss_growth_bytes"]
    )
    _RESULTS["stream_throughput"] = {
        "speedup": throughput_ratio,
        "reference_s": materialized["seconds"],
        "vectorized_s": streamed["seconds"],
        "graphs": streamed["n"],
        "materialized_graphs_per_sec": materialized["graphs_per_sec"],
        "streamed_graphs_per_sec": streamed["graphs_per_sec"],
    }
    _RESULTS["stream_peak_rss"] = {
        "speedup": rss_ratio,
        "materialized_rss_growth_bytes": materialized["rss_growth_bytes"],
        "streamed_rss_growth_bytes": streamed["rss_growth_bytes"],
        "materialized_peak_rss_bytes": materialized["peak_rss_bytes"],
        "streamed_peak_rss_bytes": streamed["peak_rss_bytes"],
    }
    _flush()
    print(
        f"  throughput: materialized {materialized['graphs_per_sec']:.1f} g/s, "
        f"streamed {streamed['graphs_per_sec']:.1f} g/s "
        f"(ratio {throughput_ratio:.2f}x)"
    )
    print(
        f"  rss growth: materialized "
        f"{materialized['rss_growth_bytes'] / 2**20:.1f} MiB, streamed "
        f"{streamed['rss_growth_bytes'] / 2**20:.1f} MiB "
        f"(advantage {rss_ratio:.2f}x)"
    )


def test_sustained_streaming():
    """Streamed-only fit at 100x the materialized scale (full mode)."""
    if SMOKE:
        return
    print_header("Sustained streaming at 100x scale")
    stats = _run_child("stream", _SUSTAINED_SCALE)
    results = json.loads(RESULT_PATH.read_text())
    results["sustained"] = {
        "graphs": stats["n"],
        "seconds": stats["seconds"],
        "graphs_per_sec": stats["graphs_per_sec"],
        "peak_rss_bytes": stats["peak_rss_bytes"],
        "rss_growth_bytes": stats["rss_growth_bytes"],
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        f"  {stats['n']} graphs in {stats['seconds']:.1f}s "
        f"({stats['graphs_per_sec']:.1f} g/s sustained), peak RSS "
        f"{stats['peak_rss_bytes'] / 2**20:.1f} MiB "
        f"(growth {stats['rss_growth_bytes'] / 2**20:.1f} MiB)"
    )


def test_acceptance_summary():
    """Floors from STAGE_FLOORS (full mode); always prints the table."""
    rows = [
        [stage, f"{data['speedup']:.2f}x"]
        for stage, data in sorted(_RESULTS.items())
    ]
    print_header("Streaming pipeline summary")
    print_table(["stage", "ratio"], rows)
    if SMOKE:
        return
    for stage, floor in STAGE_FLOORS.items():
        got = _RESULTS.get(stage, {}).get("speedup", 0)
        assert got >= floor, f"{stage}: ratio {got:.2f}x below floor {floor}x"


def main() -> None:
    test_stream_vs_materialized()
    test_sustained_streaming()
    test_acceptance_summary()
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()

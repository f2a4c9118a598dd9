"""Serving latency/throughput bench: batching, pool scaling, wire codecs.

Boots an in-process :class:`~repro.serve.http.ReproServer` on an
ephemeral port, trains and registers a small DeepMap-WL model, then
measures three independent axes of serving v2:

* **Micro-batching** (``closed_loop_*`` sections) — the closed-loop load
  generator at ``concurrency=1`` (no-batching baseline) vs
  ``concurrency=8``: the mean fused batch size must exceed 1 graph per
  forward pass, and every request must be answered with 200 or 429.
  ``closed_loop_1`` also records the same model's in-process
  single-graph ``predict_proba`` p50 and the served p50 over it
  (``served_over_in_process``, at most 4x).
* **Pool scaling** (``pool_scaling`` stage) — the same job stream pushed
  through :class:`~repro.serve.pool.InferencePool` at 1/2/4 worker
  processes by 8 concurrent client threads.  The recorded ``speedup`` is
  1-worker wall-clock over 4-worker wall-clock.  The 1.8x acceptance
  floor is *armed only on boxes with >= 4 CPUs*: process parallelism
  cannot beat the box it runs on, so a 1-core CI machine records honest
  numbers (and its honest ``cpu_count``) without failing the gate.
* **Codec serialization** (``codec_serialize`` stage) — request-body
  encode+parse round-trips through the binary CSR wire format vs the
  JSON codec, same batches, same process.  Binary must hold >= 2x.

Results merge into ``BENCH_serve.json`` in the repo root with the
``stages``/``speedup`` schema that ``scripts/check_bench_regression.py``
gates on (including the absolute floors declared under
``config.acceptance.floors``).  ``REPRO_BENCH_SMOKE=1`` shrinks every
knob and redirects to ``BENCH_serve.smoke.json`` — wiring checks only,
for the `serve` test tier; the gate refuses smoke artifacts.

Run with ``pytest benchmarks/bench_serve_latency.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

from benchmarks._common import CONFIG, bench_dataset, print_header, print_table
from repro.core import deepmap_wl, save_model
from repro.serve import ModelRegistry, ReproServer, ServeConfig, run_load
from repro.serve.codec import (
    encode_predict_request,
    graph_to_json,
    parse_predict_request,
    parse_predict_request_binary,
)
from repro.serve.pool import InferencePool

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Smoke runs exercise the harness without clobbering the committed
#: full-scale artifact that the regression gate treats as baseline.
_ARTIFACT = "BENCH_serve.smoke.json" if SMOKE else "BENCH_serve.json"
RESULT_PATH = Path(__file__).resolve().parent.parent / _ARTIFACT

#: Closed-loop worker counts benched against each other.
BASELINE_CONCURRENCY = 1
BATCHING_CONCURRENCY = 8
#: Measurement window per load run (seconds).
DURATION_S = 0.5 if SMOKE else 4.0
#: Pool-scaling job stream: batches of this many graphs, split across
#: this many concurrent client threads.
POOL_WORKER_COUNTS = (1, 2, 4)
POOL_JOBS = 6 if SMOKE else 48
POOL_BATCH = 8
POOL_CLIENTS = 8
#: Codec stage: encode+parse round-trips per codec at this batch size.
CODEC_REPEATS = 2 if SMOKE else 25
CODEC_BATCH = 32
#: Single-graph in-process ``predict_proba`` calls behind the p50 that
#: the served closed-loop p50 is divided by.
IN_PROCESS_CALLS = 20 if SMOKE else 200
#: Ceiling on served p50 / in-process p50 at concurrency 1.
OVERHEAD_CEILING = 4.0

_cores = os.cpu_count() or 1

#: Pool scaling is gated only where the hardware can express it: with
#: fewer than 4 CPUs the 4-worker pool time-slices one core and the
#: floor would punish the machine, not the code.
POOL_FLOOR = 1.8
POOL_FLOOR_ARMED = _cores >= 4
CODEC_FLOOR = 2.0

STAGE_FLOORS: dict[str, float] = {"codec_serialize": CODEC_FLOOR}
if POOL_FLOOR_ARMED:
    STAGE_FLOORS["pool_scaling"] = POOL_FLOOR

_STAGES: dict[str, dict] = {}


def _record(section: str, payload: dict) -> None:
    """Merge one section into the artifact (best effort)."""
    results: dict = {}
    if RESULT_PATH.exists():
        try:
            results = json.loads(RESULT_PATH.read_text())
        except (OSError, ValueError):
            results = {}
    results["cpu_count"] = _cores
    results["config"] = {
        "scale": CONFIG.scale,
        "epochs": CONFIG.epochs,
        "seed": CONFIG.seed,
        "duration_s": DURATION_S,
        "max_batch": 32,
        "max_wait_ms": 5.0,
        "max_queue": 128,
        "pool_jobs": POOL_JOBS,
        "pool_batch": POOL_BATCH,
        "codec_repeats": CODEC_REPEATS,
        "codec_batch": CODEC_BATCH,
        "smoke": SMOKE,
        "pool_floor_armed": POOL_FLOOR_ARMED,
        "acceptance": {"floors": dict(STAGE_FLOORS)},
    }
    if section == "stages":
        results.setdefault("stages", {}).update(payload)
    else:
        results[section] = payload
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def _trained_model_path(tmp_path) -> tuple:
    ds = bench_dataset("MUTAG")
    model = deepmap_wl(h=2, r=3, epochs=CONFIG.epochs, seed=CONFIG.seed).fit(
        ds.graphs, ds.y
    )
    path = tmp_path / "bench-model.pkl"
    save_model(model, path)
    return ds, model, path


def _in_process_p50_ms(model, graphs) -> float:
    """Median single-graph ``predict_proba`` latency, no server."""
    for g in graphs[:5]:
        model.predict_proba([g])  # warm up
    samples = []
    for i in range(IN_PROCESS_CALLS):
        g = graphs[i % len(graphs)]
        start = time.perf_counter()
        model.predict_proba([g])
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def test_serve_latency_and_batching(tmp_path):
    print_header(
        f"Serving latency: closed-loop {BASELINE_CONCURRENCY} vs "
        f"{BATCHING_CONCURRENCY} workers ({_cores} CPUs)"
    )
    ds, model, path = _trained_model_path(tmp_path)

    registry = ModelRegistry()
    registry.load(path)
    server = ReproServer(
        registry,
        ServeConfig(port=0, max_batch=32, max_wait_ms=5.0, max_queue=128),
    )
    server.start()
    try:
        sections = {}
        for concurrency in (BASELINE_CONCURRENCY, BATCHING_CONCURRENCY):
            result = run_load(
                server.url,
                ds.graphs,
                mode="closed",
                endpoint="predict_proba",
                concurrency=concurrency,
                duration_s=DURATION_S,
            )
            sections[concurrency] = result
            print(result.summary())
    finally:
        server.stop()

    baseline = sections[BASELINE_CONCURRENCY]
    batched = sections[BATCHING_CONCURRENCY]
    # What the serving layers add on top of the model: the served
    # single-graph p50 over the same model's in-process p50.
    in_process_p50 = _in_process_p50_ms(model, ds.graphs)
    overhead = baseline.percentile_ms(50) / in_process_p50
    _record(
        "closed_loop_1",
        {
            **baseline.to_dict(),
            "in_process_p50_ms": round(in_process_p50, 3),
            "served_over_in_process": round(overhead, 3),
        },
    )
    _record("closed_loop_8", batched.to_dict())
    print(
        f"served p50 {baseline.percentile_ms(50):.2f} ms / in-process p50 "
        f"{in_process_p50:.2f} ms = {overhead:.2f}x"
    )

    for result in (baseline, batched):
        # Backpressure contract: nothing dropped, everything 200 or 429.
        assert result.transport_errors == 0
        assert result.answered == result.attempted
        assert result.deadline_expired == 0 and not result.other_status
        assert result.ok + result.shed == result.attempted
        assert result.ok > 0
        assert result.percentile_ms(50) <= result.percentile_ms(95)
        assert result.percentile_ms(95) <= result.percentile_ms(99)

    # The acceptance criterion: concurrency became fusion.  Eight
    # think-time-zero workers against one inference thread must yield a
    # mean fused batch strictly above one graph per forward pass.
    assert batched.mean_batch_size is not None
    if not SMOKE:
        assert batched.mean_batch_size > 1.0, (
            f"no batching observed: mean batch {batched.mean_batch_size}"
        )
        # A Nagle stall or a coalescing wait on an idle server shows up
        # here first: each costs several in-process forward passes.
        assert overhead <= OVERHEAD_CEILING, (
            f"served p50 is {overhead:.2f}x in-process (ceiling {OVERHEAD_CEILING}x)"
        )
    _record(
        "summary",
        {
            "baseline_p50_ms": round(baseline.percentile_ms(50), 3),
            "batched_p50_ms": round(batched.percentile_ms(50), 3),
            "baseline_throughput_rps": round(baseline.throughput_rps, 3),
            "batched_throughput_rps": round(batched.throughput_rps, 3),
            "throughput_gain": round(
                batched.throughput_rps / baseline.throughput_rps, 3
            )
            if baseline.throughput_rps > 0
            else None,
            "mean_batch_size": round(batched.mean_batch_size, 3),
        },
    )
    print(
        f"throughput {baseline.throughput_rps:.1f} -> {batched.throughput_rps:.1f} ok/s, "
        f"mean fused batch {batched.mean_batch_size:.2f} graphs"
    )


def _drive_pool(pool: InferencePool, batches: list) -> float:
    """Push every batch through the pool from 8 client threads.

    Returns wall-clock seconds for the whole job stream.  Any worker
    error propagates — a scaling number from a silently degraded pool
    would be fiction.
    """
    pending = list(enumerate(batches))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client():
        while True:
            with lock:
                if not pending:
                    return
                _, batch = pending.pop()
            try:
                pool.submit(batch, op="predict_proba")
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)
                return

    threads = [threading.Thread(target=client) for _ in range(POOL_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def test_pool_scaling(tmp_path):
    print_header(
        f"Pool scaling: {POOL_JOBS} batches x {POOL_BATCH} graphs at "
        f"{POOL_WORKER_COUNTS} workers ({_cores} CPUs, floor "
        f"{'armed' if POOL_FLOOR_ARMED else 'DISARMED'})"
    )
    ds, _, path = _trained_model_path(tmp_path)
    batches = [
        [ds.graphs[(j * 7 + k) % len(ds.graphs)] for k in range(POOL_BATCH)]
        for j in range(POOL_JOBS)
    ]
    seconds: dict[int, float] = {}
    for workers in POOL_WORKER_COUNTS:
        pool = InferencePool(path, workers=workers).start()
        try:
            _drive_pool(pool, batches[:2])  # warm up: model load per worker
            seconds[workers] = _drive_pool(pool, batches)
            assert not pool.degraded and pool.respawns == 0
        finally:
            pool.stop()
        graphs_per_sec = POOL_JOBS * POOL_BATCH / seconds[workers]
        print(f"  {workers} workers: {seconds[workers]:.2f}s "
              f"({graphs_per_sec:.0f} graphs/s)")

    speedup = seconds[1] / seconds[max(POOL_WORKER_COUNTS)]
    _STAGES["pool_scaling"] = {
        "speedup": speedup,
        "reference_s": seconds[1],
        "vectorized_s": seconds[max(POOL_WORKER_COUNTS)],
        "seconds_by_workers": {str(w): round(s, 4) for w, s in seconds.items()},
        "jobs": POOL_JOBS,
        "batch": POOL_BATCH,
        "clients": POOL_CLIENTS,
        "floor_armed": POOL_FLOOR_ARMED,
    }
    _record("stages", {"pool_scaling": _STAGES["pool_scaling"]})
    print(f"  1 -> {max(POOL_WORKER_COUNTS)} workers: {speedup:.2f}x")


def test_codec_serialize(tmp_path):
    print_header("Wire codec: binary CSR vs JSON request round-trip")
    ds = bench_dataset("MUTAG")
    tiled = ds.graphs * (CODEC_BATCH * 4 // len(ds.graphs) + 1)
    batches = [
        tiled[i : i + CODEC_BATCH] for i in range(0, CODEC_BATCH * 4, CODEC_BATCH)
    ]

    def json_pass():
        for batch in batches:
            body = json.dumps(
                {"graphs": [graph_to_json(g) for g in batch]}
            ).encode()
            graphs, _, _ = parse_predict_request(body)
            assert len(graphs) == len(batch)
        return len(body)

    def binary_pass():
        for batch in batches:
            body = encode_predict_request(batch)
            graphs, _, _ = parse_predict_request_binary(body)
            assert len(graphs) == len(batch)
        return len(body)

    json_pass(), binary_pass()  # warm up
    start = time.perf_counter()
    for _ in range(CODEC_REPEATS):
        json_bytes = json_pass()
    json_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(CODEC_REPEATS):
        binary_bytes = binary_pass()
    binary_s = time.perf_counter() - start

    speedup = json_s / binary_s
    _STAGES["codec_serialize"] = {
        "speedup": speedup,
        "reference_s": json_s,
        "vectorized_s": binary_s,
        "batches": len(batches),
        "repeats": CODEC_REPEATS,
        "json_body_bytes": json_bytes,
        "binary_body_bytes": binary_bytes,
    }
    _record("stages", {"codec_serialize": _STAGES["codec_serialize"]})
    print(
        f"  json {json_s * 1e3:.1f}ms vs binary {binary_s * 1e3:.1f}ms "
        f"per {CODEC_REPEATS}x{len(batches)} batches: {speedup:.2f}x "
        f"(last body {json_bytes} -> {binary_bytes} bytes)"
    )


def test_acceptance_summary():
    """Floors from STAGE_FLOORS (full mode); always prints the table."""
    rows = [
        [stage, f"{data['speedup']:.2f}x",
         f"{STAGE_FLOORS.get(stage, '-')}"]
        for stage, data in sorted(_STAGES.items())
    ]
    print_header("Serving v2 stage summary")
    print_table(["stage", "speedup", "floor"], rows)
    if SMOKE:
        return
    for stage, floor in STAGE_FLOORS.items():
        got = _STAGES.get(stage, {}).get("speedup", 0)
        assert got >= floor, f"{stage}: {got:.2f}x below floor {floor}x"

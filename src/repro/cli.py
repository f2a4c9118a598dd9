"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Names and Table 1 statistics of the 15 benchmark generators.
``stats NAME [--scale S] [--seed K]``
    Generate a dataset and print its measured statistics.
``train --dataset NAME [--model M] [--scale S] [--folds F] [--epochs E]``
    Cross-validate a model on a benchmark and print the accuracy.
``export --dataset NAME --out DIR [--scale S]``
    Write a generated dataset to TU format for use with other tools.
``report RUN.jsonl``
    Summarise a ``--log-json`` run file: stage timings + telemetry.
``cache stats|clear [--cache-dir DIR]``
    Inspect or empty the content-addressed feature-map cache.
``checkpoints ls|prune --checkpoint-dir DIR [--keep N]``
    Inspect or prune training checkpoints and fold journals.
``serve --model PATH [--port N] [--max-batch B] [--max-wait-ms T]``
    Serve a saved model over HTTP with dynamic micro-batching.
``loadtest URL [--mode closed|open] [--rps R] [--duration S]``
    Drive a running server and report latency/throughput percentiles.
``ops trace|traces|slo``
    Reconstruct per-request trace waterfalls and SLO summaries from a
    serve ``--log-json`` run file (or a live server via ``--url``).
``dist worker --shard I/N [--port P]``
    Run one shard-owning distributed CV worker (socket protocol).
``dist run --dataset NAME --model M --workers HOST:PORT,...``
    Coordinate a distributed cross-validation over running workers.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

EPILOG = """\
observability:
  repro train --profile            print an aggregated stage-timing tree
                                   (feature_map / alignment / receptive_field
                                   / encode / train spans) after the run
  repro train --log-json RUN.jsonl stream structured spans, per-epoch
                                   telemetry and metrics to a JSONL file
  repro report RUN.jsonl           rebuild the same summary offline

parallelism and caching:
  repro train --workers N          run CV folds concurrently in a fork pool
                                   (N=0 uses every CPU; results are bitwise
                                   identical to --workers 1); defaults to
                                   $REPRO_WORKERS, else 1
  repro train --cache-dir DIR      memoize vertex feature maps and encoded
                                   tensors on disk, keyed by dataset content
                                   + extractor/encoder parameters; defaults
                                   to $REPRO_CACHE_DIR, else off
  repro cache stats|clear          inspect or empty that cache

crash recovery:
  repro train --checkpoint-dir DIR journal every finished CV fold; rerunning
                                   the same command after a crash skips the
                                   journaled folds and recomputes only the
                                   missing ones (results are bitwise equal
                                   to an uninterrupted run)
  repro train --no-resume          discard any previous journal first
  repro checkpoints ls|prune       inspect or prune checkpoints + journals

inference serving:
  repro serve --model model.pkl \\
              --port 8080 --max-batch 32 --max-wait-ms 5
                                   serve a saved model over HTTP; concurrent
                                   single-graph requests fuse into one CNN
                                   forward pass (flush on max-batch graphs or
                                   max-wait-ms; a lone request runs at
                                   once); a full admission queue sheds
                                   with 429 + Retry-After instead of queueing
                                   unboundedly; GET /metrics exposes queue
                                   depth, batch-size histograms + shed counts
  repro serve --model model.pkl --backend pool --workers 4
                                   run fused batches on a process pool fed
                                   over worker pipes; crashed
                                   workers respawn (bounded), then degrade to
                                   in-thread execution (/healthz: degraded)
  repro serve --model v1.pkl --model v2.pkl --canary default@1:10
                                   load two versions; route 10% of traffic
                                   (by deterministic trace-id hash) to v1
  repro serve --model v1.pkl --model v2.pkl --shadow default@1
                                   shadow-evaluate v1 on every live batch;
                                   agreement is counted (serve_shadow_*),
                                   the shadow answer is never returned
  repro loadtest http://127.0.0.1:8080 \\
              --mode closed --concurrency 8 --duration 5
                                   closed- or open-loop (--mode open --rps R)
                                   load generator; prints p50/p95/p99 latency,
                                   throughput, the mean fused batch size, and
                                   the admission-queue high-water mark
  repro loadtest URL --codec binary
                                   drive the binary CSR wire codec
                                   (application/x-repro-graph) instead of JSON

streaming / out-of-core training:
  repro train --stream             train a single deepmap-* model out of core:
                                   graphs are regenerated lazily from per-graph
                                   seeds, encoded shard-by-shard, and spilled
                                   to the feature-map cache (mmap'd back per
                                   batch); peak RSS stays bounded at any
                                   --scale and the result is bitwise-equal to
                                   the materialized fit
  repro train --stream --shard-size K
                                   graphs per encoded shard (default 64)
  repro stats NAME --stream        one-pass streamed dataset statistics
                                   without materializing the graphs

request tracing and SLOs:
  repro serve --log-json RUN.jsonl stream every request's spans (queue_wait /
                                   batch_wait / infer / serialize), access-log
                                   events and SLO alerts to a JSONL file;
                                   every response echoes X-Repro-Trace-Id and
                                   GET /v1/traces/<id> returns the waterfall
  repro ops traces RUN.jsonl       list the traced requests in a run file
  repro ops trace ID RUN.jsonl     render one request's stage waterfall
                                   (--url http://HOST:PORT fetches it live
                                   from the server instead)
  repro ops slo RUN.jsonl          replay the run's access log against the
                                   latency/error-budget objectives
  repro serve --slo-p95-ms 500 --slo-error-rate 0.01
                                   objectives behind /healthz degradation and
                                   slo_breach alert events

distributed cross-validation:
  repro dist worker --shard 0/2 --port 9101
                                   run one shard-owning worker: serves its
                                   local feature-map cache as a KV tensor
                                   store to peers and executes CV folds on
                                   demand; --port 0 picks an ephemeral port
                                   (parse the printed "listening on" line)
  repro dist run --dataset PTC_MR --model wl-svm \\
                 --workers 127.0.0.1:9101,127.0.0.1:9102
                                   coordinate a distributed CV over running
                                   workers: heartbeat liveness, dead-worker
                                   fold reassignment, serial degradation
                                   when the fleet is gone; results are
                                   bitwise-equal to repro train
  repro dist run --checkpoint-dir DIR
                                   journal finished folds (exactly-once via
                                   atomic fold claims); a rerun after any
                                   crash recomputes zero completed folds,
                                   and the same journal resumes a serial
                                   repro train run and vice versa

Instrumentation is off unless one of these flags is given (zero overhead
by default).  Schema and metric names: docs/OBSERVABILITY.md; worker
model and cache layout: docs/PARALLEL.md; checkpoint format, resume
semantics and fault injection: docs/RESILIENCE.md; serving architecture
and the backpressure contract: docs/SERVING.md; streaming sampler design,
memory model and the parity contract: docs/STREAMING.md; dist protocol,
shard/KV architecture and the exactly-once contract: docs/DISTRIBUTED.md.
"""

MODEL_CHOICES = (
    "deepmap-wl",
    "deepmap-sp",
    "deepmap-gk",
    "gin",
    "gcn",
    "gat",
    "dgcnn",
    "dcnn",
    "ngf",
    "patchysan",
    "wl-svm",
    "sp-svm",
    "gk-svm",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepMap reproduction: datasets, models, evaluation.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list benchmark dataset names")

    stats = sub.add_parser("stats", help="generate a dataset and print stats")
    stats.add_argument("name")
    stats.add_argument("--scale", type=float, default=0.15)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--stream",
        action="store_true",
        help="compute statistics in one streamed pass without "
        "materializing the graph list",
    )

    train = sub.add_parser("train", help="cross-validate a model")
    train.add_argument("--dataset", required=True)
    train.add_argument("--model", choices=MODEL_CHOICES, default="deepmap-wl")
    train.add_argument("--scale", type=float, default=0.1)
    train.add_argument("--folds", type=int, default=3)
    train.add_argument("--epochs", type=int, default=15)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="stream structured run events (spans, telemetry, metrics) to PATH",
    )
    train.add_argument(
        "--profile",
        action="store_true",
        help="print the aggregated stage-timing tree after the run",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="CV-fold worker processes (0 = all CPUs; default $REPRO_WORKERS or 1)",
    )
    train.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed feature-map cache directory "
        "(default $REPRO_CACHE_DIR or no caching)",
    )
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal finished CV folds under DIR so an interrupted run "
        "can resume (skips already-completed folds on rerun)",
    )
    train.add_argument(
        "--no-resume",
        action="store_true",
        help="discard any existing fold journal instead of resuming from it",
    )
    train.add_argument(
        "--stream",
        action="store_true",
        help="train a single deepmap-* model out of core: regenerate "
        "graphs lazily, encode shard-by-shard, spill to the cache "
        "(bitwise-equal to the materialized fit; no CV folds)",
    )
    train.add_argument(
        "--shard-size",
        type=int,
        default=64,
        metavar="K",
        help="graphs per encoded shard in --stream mode (default 64)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the feature-map cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default $REPRO_CACHE_DIR)",
    )

    checkpoints = sub.add_parser(
        "checkpoints", help="inspect or prune checkpoints and fold journals"
    )
    checkpoints.add_argument("action", choices=("ls", "prune"))
    checkpoints.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="directory holding ckpt-*.npz files and/or fold journals",
    )
    checkpoints.add_argument(
        "--keep",
        type=int,
        default=3,
        metavar="N",
        help="checkpoints to retain per directory when pruning (default 3)",
    )

    serve = sub.add_parser(
        "serve", help="serve a saved model over HTTP with micro-batching"
    )
    serve.add_argument(
        "--model",
        required=True,
        action="append",
        metavar="PATH",
        help="model file written by repro.core.persistence.save_model; "
        "repeat to load successive versions of the slot (v1, v2, ...) "
        "for --canary / --shadow routing",
    )
    serve.add_argument(
        "--name",
        default="default",
        help="registry slot name for the model (default: default)",
    )
    serve.add_argument(
        "--backend",
        choices=("thread", "pool"),
        default="thread",
        help="inference backend: in-process threads or a process pool "
        "fed over worker pipes (default: thread)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="batcher drainer threads, and pool worker processes with "
        "--backend pool (default: 1)",
    )
    serve.add_argument(
        "--canary",
        default=None,
        metavar="NAME@VERSION:PCT",
        help="route PCT%% of NAME's traffic to VERSION "
        "(e.g. default@1:10); the split is a deterministic trace-id hash",
    )
    serve.add_argument(
        "--shadow",
        default=None,
        metavar="NAME@VERSION",
        help="shadow-evaluate VERSION on every NAME batch; results are "
        "compared and counted (serve_shadow_* metrics), never returned",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 picks an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="B",
        help="flush a fused batch at B graphs (default 32)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=5.0,
        metavar="T",
        help=(
            "while requests are queued, hold a partial batch open at most "
            "T ms for more (default 5); a request with nothing queued "
            "behind it runs at once"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=128,
        metavar="Q",
        help="admission-queue bound; beyond it requests shed with 429 (default 128)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=30000.0,
        metavar="T",
        help="default per-request deadline when the request sets none (default 30000)",
    )
    serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the warm-up prediction at model load time",
    )
    serve.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="stream request spans, access-log events and SLO alerts to PATH "
        "(repro ops reconstructs waterfalls and SLO summaries from it)",
    )
    serve.add_argument(
        "--slo-p95-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="p95 latency objective behind /healthz degradation (default 500)",
    )
    serve.add_argument(
        "--slo-error-rate",
        type=float,
        default=0.01,
        metavar="R",
        help="error-budget rate objective in (0,1) (default 0.01)",
    )
    serve.add_argument(
        "--slo-window-s",
        type=float,
        default=60.0,
        metavar="S",
        help="sliding window the objectives are evaluated over (default 60)",
    )
    serve.add_argument(
        "--resource-interval-s",
        type=float,
        default=5.0,
        metavar="S",
        help="background resource-sampler period; <= 0 disables (default 5)",
    )

    loadtest = sub.add_parser(
        "loadtest", help="drive a running serve endpoint and report latency"
    )
    loadtest.add_argument("url", metavar="URL", help="e.g. http://127.0.0.1:8080")
    loadtest.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed: workers fire back-to-back; open: fixed --rps schedule",
    )
    loadtest.add_argument(
        "--rps", type=float, default=None, help="target request rate (open mode)"
    )
    loadtest.add_argument("--duration", type=float, default=5.0, metavar="S")
    loadtest.add_argument("--concurrency", type=int, default=8, metavar="C")
    loadtest.add_argument(
        "--endpoint",
        choices=("predict", "predict_proba"),
        default="predict_proba",
    )
    loadtest.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help="wire codec for requests/responses (binary = "
        "application/x-repro-graph CSR tensors; same numbers, fewer bytes)",
    )
    loadtest.add_argument(
        "--dataset",
        default="MUTAG",
        help="benchmark generator supplying the request graphs (default MUTAG)",
    )
    loadtest.add_argument("--scale", type=float, default=0.08)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request deadline sent with every request",
    )
    loadtest.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )

    report = sub.add_parser(
        "report", help="summarise a --log-json run file (stage timings, telemetry)"
    )
    report.add_argument("run_file", metavar="RUN.jsonl")

    ops = sub.add_parser(
        "ops", help="trace waterfalls and SLO summaries from serve run files"
    )
    ops_sub = ops.add_subparsers(dest="ops_command", required=True)

    ops_trace = ops_sub.add_parser(
        "trace", help="render one request's stage waterfall"
    )
    ops_trace.add_argument("trace_id", metavar="TRACE_ID")
    ops_trace.add_argument(
        "run_file",
        metavar="RUN.jsonl",
        nargs="?",
        default=None,
        help="serve --log-json file (omit when using --url)",
    )
    ops_trace.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="fetch the trace live from GET /v1/traces/<id> instead",
    )
    ops_trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw waterfall record instead of the ASCII rendering",
    )

    ops_traces = ops_sub.add_parser(
        "traces", help="list the traced requests in a run file"
    )
    ops_traces.add_argument("run_file", metavar="RUN.jsonl")

    ops_slo = ops_sub.add_parser(
        "slo", help="replay a run's access log against SLO objectives"
    )
    ops_slo.add_argument("run_file", metavar="RUN.jsonl")
    ops_slo.add_argument(
        "--latency-target-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="p95 latency objective (default 500)",
    )
    ops_slo.add_argument(
        "--error-rate-target",
        type=float,
        default=0.01,
        metavar="R",
        help="error-budget rate objective in (0,1) (default 0.01)",
    )

    export = sub.add_parser("export", help="write a dataset in TU format")
    export.add_argument("--dataset", required=True)
    export.add_argument("--out", required=True)
    export.add_argument("--scale", type=float, default=0.15)
    export.add_argument("--seed", type=int, default=0)

    dist = sub.add_parser(
        "dist", help="distributed CV: shard workers + coordinator"
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)

    dist_worker = dist_sub.add_parser(
        "worker", help="run one shard-owning dist worker"
    )
    dist_worker.add_argument("--host", default="127.0.0.1")
    dist_worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 = ephemeral; parse the 'listening on' line)",
    )
    dist_worker.add_argument(
        "--shard",
        default="0/1",
        metavar="I/N",
        help="this worker's shard: index/num_shards (e.g. 1/4)",
    )
    dist_worker.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="back the worker's feature-map cache with this directory",
    )
    dist_worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identifier in logs and reports (default shard<I>)",
    )

    dist_run = dist_sub.add_parser(
        "run", help="coordinate a distributed CV over running workers"
    )
    dist_run.add_argument("--dataset", required=True)
    dist_run.add_argument(
        "--model", choices=MODEL_CHOICES, default="wl-svm"
    )
    dist_run.add_argument(
        "--workers",
        required=True,
        metavar="HOST:PORT,...",
        help="comma-separated addresses of running dist workers",
    )
    dist_run.add_argument("--scale", type=float, default=0.1)
    dist_run.add_argument("--folds", type=int, default=3)
    dist_run.add_argument("--epochs", type=int, default=15)
    dist_run.add_argument("--seed", type=int, default=0)
    dist_run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal finished folds (exactly-once, crash-resumable)",
    )
    dist_run.add_argument(
        "--no-resume",
        action="store_true",
        help="discard any previous fold journal before running",
    )
    dist_run.add_argument(
        "--shutdown-workers",
        action="store_true",
        help="ask the workers to exit after the run completes",
    )
    return parser


def _cmd_list_datasets() -> int:
    from repro.datasets import DATASET_NAMES, paper_statistics

    print(f"{'dataset':<12s} {'n':>5s} {'cls':>4s} {'nodes':>8s} {'edges':>9s}")
    for name in DATASET_NAMES:
        s = paper_statistics(name)
        print(
            f"{name:<12s} {s.size:>5d} {s.num_classes:>4d} "
            f"{s.avg_nodes:>8.1f} {s.avg_edges:>9.1f}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset

    ds = make_dataset(
        args.name, scale=args.scale, seed=args.seed, stream=args.stream
    )
    s = ds.statistics()
    print(f"dataset:  {s.name}")
    print(f"graphs:   {s.size}")
    print(f"classes:  {s.num_classes}")
    print(f"avg |V|:  {s.avg_nodes:.2f}")
    print(f"avg |E|:  {s.avg_edges:.2f}")
    print(f"labels:   {s.num_labels}")
    return 0


def _make_model_factory(model: str, epochs: int):
    # Canonical registry lives in repro.dist.protocol so a dist worker
    # handed a model name builds the identical model this CLI would.
    from repro.dist.protocol import model_factory_for

    return model_factory_for(model, epochs)


def _make_kernel(model: str):
    from repro.dist.protocol import kernel_for

    return kernel_for(model)


def _print_extras(result) -> None:
    """Print the per-fold diagnostics carried in ``CVResult.extra``."""
    seconds = result.extra.get("fold_seconds")
    if seconds:
        per_fold = ", ".join(f"{s:.2f}s" for s in seconds)
        print(f"fold times: {per_fold}  (total {sum(seconds):.2f}s)")
    curves = result.extra.get("fold_val_curves")
    if curves and result.best_epoch is not None:
        at_best = ", ".join(f"{c[result.best_epoch]:.3f}" for c in curves)
        print(f"fold val acc @ best epoch: {at_best}")
    selected_c = result.extra.get("selected_c")
    if selected_c:
        print(f"selected C per fold: {', '.join(f'{c:g}' for c in selected_c)}")


def _run_stream_train(args: argparse.Namespace) -> int:
    """One streamed out-of-core fit (no CV folds); bitwise-equal to fit."""
    import time

    from repro.datasets import make_dataset
    from repro.obs.resources import sample_resources

    if not args.model.startswith("deepmap-"):
        print(
            f"--stream supports deepmap-* models only (got {args.model})",
            file=sys.stderr,
        )
        return 2
    stream = make_dataset(
        args.dataset, scale=args.scale, seed=args.seed, stream=True
    )
    factory = _make_model_factory(args.model, args.epochs)
    assert factory is not None  # deepmap-* is always neural
    model = factory(args.seed)
    print(
        f"{args.model} on {stream.name} ({len(stream)} graphs, streamed, "
        f"shard size {args.shard_size})..."
    )
    start = time.perf_counter()
    model.fit_stream(stream, shard_size=args.shard_size)
    elapsed = time.perf_counter() - start
    sample = sample_resources()
    print(f"train accuracy: {model.history_.train_accuracy[-1]:.4f}")
    print(
        f"throughput: {len(stream) / elapsed:.1f} graphs/sec sustained "
        f"({elapsed:.2f}s, {args.epochs} epochs)"
    )
    print(f"peak RSS: {sample['peak_rss_bytes'] / 2**20:.1f} MiB")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.datasets import make_dataset
    from repro.eval import evaluate_kernel_svm, evaluate_neural_model

    observing = args.profile or args.log_json is not None
    if observing:
        obs.reset()  # each run profiles from a clean slate
        obs.enable(jsonl_path=args.log_json)
        obs.meta(
            "run",
            command="train",
            dataset=args.dataset,
            model=args.model,
            scale=args.scale,
            folds=args.folds,
            epochs=args.epochs,
            seed=args.seed,
            stream=args.stream,
        )
    try:
        if args.cache_dir is not None:
            from repro.cache import configure

            configure(cache_dir=args.cache_dir)
        if args.stream:
            rc = _run_stream_train(args)
            if rc != 0:
                return rc
        else:
            ds = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
            print(
                f"{args.model} on {ds.name} "
                f"({len(ds)} graphs, {args.folds}-fold CV)..."
            )
            factory = _make_model_factory(args.model, args.epochs)
            if factory is not None:
                result = evaluate_neural_model(
                    factory,
                    ds,
                    n_splits=args.folds,
                    seed=args.seed,
                    name=args.model,
                    workers=args.workers,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=not args.no_resume,
                )
                print(
                    f"accuracy: {result.formatted()}  "
                    f"(best epoch {result.best_epoch})"
                )
            else:
                kernel = _make_kernel(args.model)
                assert kernel is not None  # argparse choices guarantee it
                result = evaluate_kernel_svm(
                    kernel,
                    ds,
                    n_splits=args.folds,
                    seed=args.seed,
                    workers=args.workers,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=not args.no_resume,
                )
                print(f"accuracy: {result.formatted()}")
            _print_extras(result)
        from repro.cache import get_cache

        cache = get_cache()
        if cache is not None:
            s = cache.stats
            print(
                f"cache: {s.hits} hits / {s.misses} misses "
                f"({s.memory_hits} memory, {s.disk_hits} disk)"
            )
        if observing:
            obs.flush_metrics()
            if args.profile:
                print()
                print(obs.render_profile())
            if args.log_json is not None:
                print(f"run events written to {args.log_json}")
    finally:
        if observing:
            obs.disable()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.cache import CACHE_DIR_ENV, FeatureMapCache

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(
            "no cache directory: pass --cache-dir or set "
            f"{CACHE_DIR_ENV} (caching is off by default)"
        )
        return 2
    cache = FeatureMapCache(cache_dir=cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entries from {cache_dir}")
        return 0
    entries, total_bytes = cache.disk_usage()
    print(f"cache dir: {cache_dir}")
    print(f"entries:   {entries}")
    print(f"size:      {total_bytes / 1024:.1f} KiB")
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.resilience import CheckpointManager, FoldJournal

    root = Path(args.checkpoint_dir)
    if not root.exists():
        print(f"no such directory: {root}")
        return 2
    # Checkpoints and journals may live in the root or one level down
    # (protocol journals use per-run-key subdirectories).
    directories = [root] + sorted(p for p in root.iterdir() if p.is_dir())
    if args.action == "prune":
        removed = 0
        for directory in directories:
            manager = CheckpointManager(directory, keep=None)
            if manager.list():
                removed += manager.prune(args.keep)
        print(f"removed {removed} checkpoints (kept newest {args.keep} per dir)")
        return 0
    found = False
    for directory in directories:
        infos = CheckpointManager(directory, keep=None).list()
        for info in infos:
            found = True
            print(f"{info.path}  step={info.step}  {info.bytes / 1024:.1f} KiB")
        journal_path = directory / "folds.jsonl"
        if journal_path.exists():
            found = True
            folds = sorted(FoldJournal(journal_path).load())
            print(f"{journal_path}  folds={folds}")
    if not found:
        print(f"no checkpoints or fold journals under {root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro import obs
    from repro.serve import ModelRegistry, ReproServer, ServeConfig
    from repro.serve.registry import parse_canary_spec

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            request_timeout_s=args.timeout_ms / 1000.0,
            slo_latency_p95_ms=args.slo_p95_ms,
            slo_error_rate_target=args.slo_error_rate,
            slo_window_s=args.slo_window_s,
            resource_interval_s=args.resource_interval_s,
            backend=args.backend,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"bad serve option: {exc}")
        return 2
    if args.log_json is not None:
        # Enable before the server starts so it streams rather than
        # owning an in-memory-only context.
        obs.reset()
        obs.enable(jsonl_path=args.log_json)

    registry = ModelRegistry(warm=not args.no_warm)
    for path in args.model:  # repeated --model = successive versions
        entry = registry.load(path, name=args.name)
    if args.canary is not None:
        name, version, pct = parse_canary_spec(args.canary)
        registry.set_canary(name, version, pct)
    if args.shadow is not None:
        try:
            shadow_name, shadow_version_s = args.shadow.rsplit("@", 1)
            shadow_version = int(shadow_version_s)
        except ValueError:
            print(f"bad --shadow spec {args.shadow!r}; expected name@version")
            return 2
        registry.set_shadow(shadow_name, shadow_version)
    server = ReproServer(registry, config)
    server.start()
    # The exact "listening on" line is the startup contract scripts
    # (e.g. the serve smoke tier) parse to learn the ephemeral port.
    print(
        f"listening on {server.url}  "
        f"(model {entry.name} v{entry.version}: {entry.model.extractor.name}, "
        f"max_batch={config.max_batch}, max_wait_ms={config.max_wait_ms:g}, "
        f"max_queue={config.max_queue}, backend={config.backend}, "
        f"workers={config.workers})",
        flush=True,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        server.stop()
        if args.log_json is not None:
            obs.disable()
            print(f"run events written to {args.log_json}", flush=True)
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.datasets import make_dataset
    from repro.serve import ServeClient, run_load

    if args.mode == "open" and not args.rps:
        print("open-loop mode needs --rps", flush=True)
        return 2
    ds = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    client = ServeClient(args.url)
    health = client.healthz()  # fail fast on a dead/missing server
    client.close()
    models = ", ".join(m["name"] for m in health.get("models", [])) or "none"
    print(
        f"target {args.url} up ({health.get('uptime_s', 0):.0f}s, models: {models}); "
        f"sending {ds.name} graphs"
    )
    result = run_load(
        args.url,
        ds.graphs,
        mode=args.mode,
        endpoint=args.endpoint,
        concurrency=args.concurrency,
        duration_s=args.duration,
        rps=args.rps,
        timeout_ms=args.timeout_ms,
        codec=args.codec,
    )
    print(result.summary())
    if args.json is not None:
        with open(args.json, "w") as fh:
            json_mod.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"full report written to {args.json}")
    return 0 if result.transport_errors == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_report, format_report, load_events

    print(format_report(build_report(load_events(args.run_file))))
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.obs.report import load_events
    from repro.obs.reqtrace import build_waterfall, format_waterfall, list_traces
    from repro.obs.slo import SloConfig, build_slo_summary, format_slo_summary

    if args.ops_command == "trace":
        if args.url is not None:
            from repro.serve import ServeClient, ServeClientError

            client = ServeClient(args.url)
            try:
                record = client.trace(args.trace_id)
            except ServeClientError as exc:
                print(f"trace {args.trace_id}: {exc}")
                return 2
            finally:
                client.close()
        elif args.run_file is not None:
            record = build_waterfall(load_events(args.run_file), args.trace_id)
            if record is None:
                print(f"trace {args.trace_id} not found in {args.run_file}")
                return 2
        else:
            print("ops trace needs a RUN.jsonl file or --url")
            return 2
        if args.json:
            print(json_mod.dumps(record, indent=2, sort_keys=True))
        else:
            print(format_waterfall(record))
        return 0

    if args.ops_command == "traces":
        rows = list_traces(load_events(args.run_file))
        if not rows:
            print(f"no traced requests in {args.run_file}")
            return 0
        print(f"{'trace_id':<18s} {'endpoint':<14s} {'status':>6s} "
              f"{'batch':>6s} {'ms':>9s}")
        for row in rows:
            print(
                f"{row['trace_id']:<18s} {row['endpoint']:<14s} "
                f"{row['status'] if row['status'] is not None else '?':>6} "
                f"{row['batch_id'] or '-':>6s} {row['duration_s'] * 1000:>9.2f}"
            )
        return 0

    # args.ops_command == "slo" (argparse enforces the choices)
    config = SloConfig(
        latency_p95_ms=args.latency_target_ms,
        error_rate_target=args.error_rate_target,
    )
    summary = build_slo_summary(load_events(args.run_file), config)
    print(format_slo_summary(summary))
    return 0 if summary["status"] == "ok" else 1


def _parse_shard(spec: str) -> tuple[int, int]:
    try:
        index_s, num_s = spec.split("/", 1)
        index, num = int(index_s), int(num_s)
    except ValueError:
        raise SystemExit(f"--shard must look like I/N, got {spec!r}") from None
    if not 0 <= index < num:
        raise SystemExit(f"--shard index {index} out of range for {num} shards")
    return index, num


def _parse_worker_addresses(spec: str) -> list[tuple[str, int]]:
    addresses = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            host, port_s = part.rsplit(":", 1)
            addresses.append((host, int(port_s)))
        except ValueError:
            raise SystemExit(
                f"--workers entries must look like HOST:PORT, got {part!r}"
            ) from None
    if not addresses:
        raise SystemExit("--workers needs at least one HOST:PORT address")
    return addresses


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    from repro.cache import FeatureMapCache
    from repro.dist import DistWorker

    shard_index, num_shards = _parse_shard(args.shard)
    cache = FeatureMapCache(cache_dir=args.cache_dir)
    worker = DistWorker(
        args.host,
        args.port,
        shard_index=shard_index,
        num_shards=num_shards,
        cache=cache,
        worker_id=args.worker_id,
    )
    host, port = worker.start()
    # The exact "listening on" line is the startup contract the dist
    # test harness (and any launcher script) parses for the port.
    print(
        f"dist worker {worker.worker_id} listening on {host}:{port} "
        f"(shard {shard_index}/{num_shards})",
        flush=True,
    )
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        worker.stop()
    return 0


def _cmd_dist_run(args: argparse.Namespace) -> int:
    from repro.dist import DistCoordinator, run_spec

    addresses = _parse_worker_addresses(args.workers)
    spec = run_spec(
        args.model,
        args.dataset,
        scale=args.scale,
        dataset_seed=args.seed,
        n_splits=args.folds,
        seed=args.seed,
        epochs=args.epochs,
    )
    print(
        f"{args.model} on {args.dataset} ({args.folds}-fold CV, "
        f"{len(addresses)} workers)..."
    )
    with DistCoordinator(addresses) as coordinator:
        report = coordinator.run(
            spec,
            checkpoint_dir=args.checkpoint_dir,
            resume=not args.no_resume,
        )
        if args.shutdown_workers:
            coordinator.shutdown_workers()
    result = report.result
    if result.best_epoch is not None:
        print(f"accuracy: {result.formatted()}  (best epoch {result.best_epoch})")
    else:
        print(f"accuracy: {result.formatted()}")
    _print_extras(result)
    by_worker = ", ".join(
        f"{worker}={sorted(folds)}"
        for worker, folds in sorted(report.folds_by_worker.items())
    )
    print(
        f"dist: {report.completed_remote} folds remote"
        + (f" ({by_worker})" if by_worker else "")
        + (
            f", {report.completed_from_journal} from journal"
            if report.completed_from_journal
            else ""
        )
        + (
            f", {len(report.degraded_folds)} degraded to serial"
            if report.degraded_folds
            else ""
        )
        + (
            f", {report.worker_deaths} worker deaths, "
            f"{report.reassignments} reassignments"
            if report.worker_deaths
            else ""
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset
    from repro.datasets.tu_format import save_tu_dataset

    ds = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_tu_dataset(ds, args.out)
    print(f"wrote {len(ds)} graphs to {args.out} (TU format)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "checkpoints":
        return _cmd_checkpoints(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "ops":
        return _cmd_ops(args)
    if args.command == "dist":
        if args.dist_command == "worker":
            return _cmd_dist_worker(args)
        return _cmd_dist_run(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command line: ``run`` one workload (or all of them) and ``compare`` runs.

    python3 -m benchmarks.e2e run --workload NAME --seed S [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
    python3 -m benchmarks.e2e run --seed S          # every workload, one process each
    python3 -m benchmarks.e2e compare A_DIR B_DIR

A single-workload run prints a report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics when untraced, the per-layer metrics when traced.  It also
writes a result file to ``--out`` (default ``.bench_build/e2e/results``),
which ``compare`` reads.

An untraced run of an in-process workload is measured in ``PARTS``
fresh processes one after another (``python3 -m benchmarks.e2e part
...``), each for its share of ``--seconds``; the run pools their samples
before it takes any median.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.env import ROOT, WORK_ROOT, child_env, use_src

WORKLOADS = ("serve_seq", "serve_open", "score_batch", "score_cached", "train_cv")
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 1.0
#: How many processes an untraced run of an in-process workload is split
#: between.  On a shared machine one process runs this code 5-10% faster
#: or slower than the next for its whole life, while the halves of one
#: process mostly agree to within 3%; a run made of several processes
#: averages that out instead of reporting one draw of it.
PARTS = 2
IN_PROCESS = ("score_batch", "score_cached", "train_cv")


def _workload_fn(name: str):
    from benchmarks.e2e import offline, serve

    return {
        "serve_seq": serve.serve_seq,
        "serve_open": serve.serve_open,
        "score_batch": offline.score_batch,
        "score_cached": offline.score_cached,
        "train_cv": offline.train_cv,
    }[name]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or every workload")
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--smoke", action="store_true", help="~1 s phases and small fixtures")
    run.add_argument("--out", type=Path, default=WORK_ROOT / "results")
    part = sub.add_parser("part", help="one process's share of an untraced run; prints its samples")
    part.add_argument("--workload", choices=WORKLOADS, required=True)
    part.add_argument("--seed", type=int, default=1)
    part.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    part.set_defaults(trace=0, smoke=False)
    cmp = sub.add_parser("compare", help="compare result directories A (baseline) and B")
    cmp.add_argument("a_dir", type=Path)
    cmp.add_argument("b_dir", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "part") and args.seed < 0:
        parser.error("--seed must be >= 0")  # request seed S + 1 must differ from DATA_SEED
    if args.command == "compare":
        from benchmarks.e2e import compare

        return compare.main(args.a_dir, args.b_dir)
    use_src()
    _unwind_on_signals()
    if args.command == "part":
        print(json.dumps(dataclasses.asdict(_run_here(args, args.seconds))))
        return 0
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


def _unwind_on_signals() -> None:
    """Make SIGINT and SIGTERM unwind the run through its cleanup.

    A process started in the background inherits SIGINT as ignored, and
    would pass that on to every server it starts, which then could not
    be stopped with SIGINT.  A handled signal is reset to its default in
    each child, so the servers shut down cleanly on SIGINT again.
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so memory readings stay separate."""
    t0 = time.perf_counter()
    summary = {}
    for workload in WORKLOADS:
        argv = [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            argv.append("--smoke")
        lines = _child_output(argv).splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary[workload] = json.loads(lines[-1])
    print(f"all workloads: {time.perf_counter() - t0:.1f}s wall")
    print(json.dumps({
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "workloads": summary,
    }))
    return 0


def _run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    parts = PARTS if args.workload in IN_PROCESS and not (args.trace or args.smoke) else 1
    mode = "traced" if args.trace else "untraced"
    split = f"  {parts} parts" if parts > 1 else ""
    print(f"== {args.workload}  seed {args.seed}  {seconds:g}s{split}  {mode}{'  SMOKE' if args.smoke else ''} ==",
          flush=True)
    t0 = time.perf_counter()
    result = _run_parts(args, parts, seconds / parts) if parts > 1 else _run_here(args, seconds)
    wall = time.perf_counter() - t0

    if args.trace:
        metrics = {name: (float(result.layers.get(name, 0.0)), unit, None) for name, unit, _ in PER_LAYER}
    else:
        measured = result.metrics()
        metrics = {name: (float(measured[name][0]), unit, measured[name][1]) for name, unit, _ in END_TO_END}
    for name, (value, unit, samples) in metrics.items():
        count = f"{samples} samples" if samples is not None else ""
        print(f"  {name:<38} {value:>14.6g} {unit:<12} {count}")
    error_rate = result.failed / result.attempted
    print(f"  operations: {result.attempted} attempted, {result.failed} failed (error_rate {error_rate:g})")
    notes = result.report()
    for key, value in notes.items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"  run wall time: {wall:.1f}s")

    correct = result.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": int(args.trace),
        "smoke": args.smoke, "parts": parts, "correct": correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
        "notes": notes, "wall_s": wall,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-{mode}{'-smoke' if args.smoke else ''}-{time.time_ns()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


def _run_here(args: argparse.Namespace, seconds: float):
    """The workload in this process, in a working directory of its own."""
    from benchmarks.e2e.common import Context

    work = WORK_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _workload_fn(args.workload)(Context(args.workload, args.seed, seconds, bool(args.trace), args.smoke, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_parts(args: argparse.Namespace, parts: int, seconds: float):
    """``parts`` fresh processes one after another, their samples pooled."""
    from benchmarks.e2e.common import Result

    result = Result()
    for _ in range(parts):
        argv = [sys.executable, "-m", "benchmarks.e2e", "part", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(seconds)]
        result.merge(Result(**json.loads(_child_output(argv).splitlines()[-1])))
    return result


def _child_output(argv: list[str]) -> str:
    """Standard output of a child run of the benchmark.

    Exits non-zero, printing no result, when the child fails.  Whatever
    ends this process first stops the child with SIGTERM, which it
    unwinds through its own cleanup, and waits for it.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{' '.join(argv[2:])}: exited with code {proc.returncode}")
    return out

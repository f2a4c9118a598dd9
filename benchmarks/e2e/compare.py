"""Compare two sets of runs, one row per workload and end-to-end metric.

    python -m benchmarks.e2e compare A_DIR B_DIR

Each directory holds the result files of untraced ``run --out DIR``
invocations (one per run; traced results are skipped).  A is the
baseline, B the change.  Each row gives both sides' median and
quartiles, the share of (A run, B run) pairs in which B reads better,
and a verdict under the bound ``BENCHMARK.json`` fixes for the metric:

* ``better`` — B wins at least 90% of the pairs and the medians differ
  by more than A's own interquartile range;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's interquartile range is wider than the bound and
  the runs do not separate completely, so the data cannot tell;
* ``unchanged`` — otherwise.

Two readings within 1% of A's median of each other are a tie, which
counts for neither side: these runs do not resolve smaller differences.

A change that fails more operations than the baseline is ``worse`` on
the ``error_rate`` row.  Smoke results are refused.  Exits 1 when any
row is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.e2e.env import BENCHMARK_JSON

WIN_SHARE = 0.9
TIE = 0.01


def load_runs(directory: Path) -> tuple[dict[str, list[dict]], int]:
    """Untraced results by workload, and how many traced ones were skipped."""
    runs: dict[str, list[dict]] = {}
    skipped = 0
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" not in record:
            continue
        if record.get("smoke"):
            raise ValueError(f"{path} is a smoke result; compare only full runs")
        if record.get("trace"):
            skipped += 1
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs, skipped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, share of pairs B wins, relative change of the median)``."""
    sign = 1.0 if better == "higher" else -1.0  # positive = B better
    qa, qb = quartiles(a), quartiles(b)
    tie = TIE * abs(qa[1])
    pairs = [sign * (y - x) for x in a for y in b]
    wins = sum(d > tie for d in pairs) / len(pairs)
    losses = sum(d < -tie for d in pairs) / len(pairs)
    change = (qb[1] - qa[1]) / abs(qa[1])
    worse_by = -sign * change
    wide = (qa[2] - qa[0]) / abs(qa[1]) > bound
    separated = wins == 1.0 or losses == 1.0
    if wins >= WIN_SHARE and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better", wins, change
    if wide and not separated:
        return "unresolved", wins, change
    if worse_by > bound:
        return "worse", wins, change
    return "unchanged", wins, change


def compare(a_dir: Path, b_dir: Path) -> tuple[list[dict], list[str]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    a_runs, a_skipped = load_runs(a_dir)
    b_runs, b_skipped = load_runs(b_dir)
    notes = []
    if a_skipped or b_skipped:
        notes.append(f"skipped traced results: {a_skipped} in A, {b_skipped} in B")
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            notes.append(f"{workload}: {len(a)} runs in A, {len(b)} in B; not compared")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            result, wins, change = verdict(av, bv, metric["better"], metric["bound"])
            rows.append(
                {"workload": workload, "metric": name, "unit": metric["unit"], "a": quartiles(av),
                 "b": quartiles(bv), "runs": (len(av), len(bv)), "wins": wins, "change": change,
                 "verdict": result}
            )
        a_err = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        b_err = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        rows.append(
            {"workload": workload, "metric": "error_rate", "unit": "ratio", "a": (a_err,) * 3,
             "b": (b_err,) * 3, "runs": (len(a), len(b)), "wins": float(b_err < a_err),
             "change": b_err - a_err, "verdict": "worse" if b_err > a_err else "unchanged"}
        )
    return rows, notes


def main(a_dir: Path, b_dir: Path) -> int:
    try:
        rows, notes = compare(a_dir, b_dir)
    except ValueError as exc:
        print(f"compare: {exc}")
        return 2
    print(f"{'workload':<13} {'metric':<15} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'runs':>6} {'B wins':>7} {'change':>8}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        print(
            f"{r['workload']:<13} {r['metric']:<15} "
            f"{f'{a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}]':>30} {f'{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]':>30} "
            f"{'%d/%d' % r['runs']:>6} {r['wins']:>7.0%} {r['change']:>+8.1%}  {r['verdict']}"
        )
    for note in notes:
        print(f"note: {note}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0

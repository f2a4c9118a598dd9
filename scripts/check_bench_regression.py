#!/usr/bin/env python
"""Perf-regression gate over committed benchmark artifacts.

Compares a freshly generated benchmark artifact (``BENCH_hotpaths.json``
by default, or e.g. ``BENCH_obs.json`` via ``--current``) against a
baseline — by default the same-named file committed at ``HEAD`` — and
fails if any stage's *speedup* — instrumented-vs-baseline or
vectorized-vs-reference, both timed in the same process on the same
machine — has dropped by more than ``--tolerance`` (default 10%).
Comparing the ratio rather than raw wall-clock keeps the gate
machine-independent: a slower CI box slows both sides equally.

On top of the relative-drop check, the gate enforces any *absolute*
per-stage floors the current artifact declares under
``config.acceptance.floors`` (e.g. the WL radix remap and one-GEMM gram
assembly must each hold >= 3x regardless of what the baseline scored).

Typical use::

    python -m benchmarks.bench_hotpaths         # rewrites BENCH_hotpaths.json
    python scripts/check_bench_regression.py     # vs git HEAD's copy

or for the observability-overhead artifact::

    pytest benchmarks/bench_obs_overhead.py      # rewrites BENCH_obs.json
    python scripts/check_bench_regression.py --current BENCH_obs.json

or explicitly::

    python scripts/check_bench_regression.py --current BENCH_hotpaths.json \
        --baseline /path/to/old/BENCH_hotpaths.json

Exit status: 0 = no regression, 1 = regression, 2 = usage/data error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_hotpaths.json"


def load_baseline(path: str | None, current: str) -> dict:
    """Baseline JSON from ``path``, or from ``git show HEAD`` when omitted.

    The HEAD lookup uses the basename of ``current``, so gating
    ``BENCH_obs.json`` compares against the committed ``BENCH_obs.json``.
    """
    if path is not None:
        return json.loads(Path(path).read_text())
    artifact = Path(current).name
    proc = subprocess.run(
        ["git", "show", f"HEAD:{artifact}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise FileNotFoundError(
            f"no {artifact} committed at HEAD; pass --baseline"
        )
    return json.loads(proc.stdout)


def compare(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    cur_stages = current.get("stages", {})
    base_stages = baseline.get("stages", {})
    if current.get("config", {}).get("smoke") or baseline.get("config", {}).get("smoke"):
        raise ValueError(
            "refusing to gate on smoke-mode numbers; rerun without REPRO_BENCH_SMOKE"
        )
    problems = []
    for stage, base in sorted(base_stages.items()):
        cur = cur_stages.get(stage)
        if cur is None:
            problems.append(f"{stage}: missing from current run")
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        status = "ok" if cur["speedup"] >= floor else "REGRESSED"
        print(
            f"  {stage:<18s} baseline {base['speedup']:6.2f}x  "
            f"current {cur['speedup']:6.2f}x  floor {floor:6.2f}x  {status}"
        )
        if cur["speedup"] < floor:
            problems.append(
                f"{stage}: speedup {cur['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - {tolerance:.0%})"
            )
    # Absolute floors declared by the current artifact itself: these are
    # acceptance criteria, not relative drift, so no tolerance applies.
    hard_floors = (
        current.get("config", {}).get("acceptance", {}).get("floors", {})
    )
    for stage, hard in sorted(hard_floors.items()):
        cur = cur_stages.get(stage)
        if cur is None:
            problems.append(f"{stage}: declared floor {hard}x but stage missing")
            continue
        status = "ok" if cur["speedup"] >= hard else "BELOW FLOOR"
        print(
            f"  {stage:<18s} absolute floor {hard:6.2f}x  "
            f"current {cur['speedup']:6.2f}x  {status}"
        )
        if cur["speedup"] < hard:
            problems.append(
                f"{stage}: speedup {cur['speedup']:.2f}x below the "
                f"absolute acceptance floor {hard:.2f}x"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        default=str(DEFAULT_CURRENT),
        help="freshly generated BENCH_hotpaths.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: BENCH_hotpaths.json at git HEAD)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional speedup drop per stage (default 0.10)",
    )
    args = parser.parse_args(argv)

    try:
        current = json.loads(Path(args.current).read_text())
        baseline = load_baseline(args.baseline, args.current)
        problems = compare(current, baseline, args.tolerance)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if problems:
        print("\nperf regression detected:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("\nno perf regression: every stage within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

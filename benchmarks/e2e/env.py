"""Where the benchmark finds the program and keeps its working files.

The benchmark builds nothing: it imports ``repro`` from the checkout's
``src/`` tree.  Every file it writes goes under ``.bench_build/e2e`` in
the checkout, which ``.gitignore`` names.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "e2e"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: One thread per BLAS call.  OpenBLAS otherwise starts a thread per CPU
#: that spins while it waits for its peers: a pass then keeps both CPUs
#: of a 2-CPU machine busy, and anything else that runs there stalls the
#: whole pass, which made run-to-run spread swamp any real change.
THREAD_LIMITS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def use_src() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Exits non-zero, printing no result, when the sources are missing —
    the benchmark measures nothing it cannot import from ``src/``.
    Call it before anything imports numpy: the thread limits are read
    when the BLAS library loads.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmarks.e2e: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The program's own process-wide settings (default cache directory,
    # worker count, fault plans) would change what is measured.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(THREAD_LIMITS)


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts (server, fixtures)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_LIMITS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env

"""``repro serve`` with the benchmark's span wrappers installed.

    python -m benchmarks.e2e.traced_serve --trace-out FILE --model PATH [serve flags]

Installs the same wrappers as the in-process traced run, then hands the
remaining arguments to ``repro.cli.main(["serve", ...])``.  Spans stay in
memory; they are written to ``FILE`` when the server exits (SIGINT).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from benchmarks.e2e.env import use_src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.traced_serve")
    parser.add_argument("--trace-out", type=Path, required=True)
    args, serve_args = parser.parse_known_args(argv)
    use_src()
    from repro.cli import main as repro_main

    from benchmarks.e2e import tracing

    tracer = tracing.Tracer()
    try:
        with tracing.traced(tracer):
            return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())

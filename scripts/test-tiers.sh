#!/bin/sh
# Test tiers for CI and local runs.
#
#   ./scripts/test-tiers.sh fast    tier 1: the whole suite minus -m slow
#                                   (slow = subprocess e2e + hypothesis
#                                   resume property tests)
#   ./scripts/test-tiers.sh faults  the crash-recovery fault matrix only
#                                   (tests/resilience, slow cases included)
#   ./scripts/test-tiers.sh serve   the inference-serving tier: tests/serve
#                                   (incl. the differential codec/backend
#                                   harness, binary-codec fuzz, pool fault
#                                   injection, canary/shadow routing),
#                                   then tests/serve/test_http.py
#                                   and tests/serve/test_tracing.py alone
#                                   in that order (no test may depend on
#                                   a shared server's leftover SLO
#                                   window), plus an end-to-end CLI smoke
#                                   test that boots `repro serve` on an
#                                   ephemeral port, does one predict
#                                   round-trip, and checks clean SIGINT
#                                   shutdown (thread backend, then
#                                   `--backend pool --workers 2` answering
#                                   bitwise the same), then a smoke-mode run of
#                                   the serve bench so the pool-scaling /
#                                   codec stages can't rot; full-scale
#                                   numbers + the regression gate on
#                                   BENCH_serve.json are a separate
#                                   manual step (see docs/SERVING.md)
#   ./scripts/test-tiers.sh obs     the observability tier: tests/obs
#                                   (tracing, SLOs, resources, metrics,
#                                   events) plus a smoke-mode run of the
#                                   disabled-overhead bench so the
#                                   zero-overhead harness itself can't
#                                   rot; full-scale numbers + the
#                                   regression gate on BENCH_obs.json
#                                   are a separate manual step (see
#                                   docs/OBSERVABILITY.md)
#   ./scripts/test-tiers.sh kernels the kernel/gram tier: the differential
#                                   equivalence harness (tests/equivalence),
#                                   the kernel unit suite (tests/kernels),
#                                   the fork-pool gram-parity and cache-key
#                                   stability suites (tests/parallel), and a
#                                   smoke-mode run of the hot-path bench so
#                                   the gram/encode bench stages can't rot
#   ./scripts/test-tiers.sh stream  the streaming out-of-core tier:
#                                   tests/stream (shard store, mmap cache
#                                   reads, re-encode of a torn enc spill
#                                   via corrupt@cache_write) plus the
#                                   streamed-vs-materialized bitwise
#                                   equivalence suite and the CLI
#                                   `train --stream` smoke, then a smoke-mode
#                                   run of the stream bench so the
#                                   harness can't rot; full-scale numbers
#                                   + the regression gate on
#                                   BENCH_stream.json are a separate
#                                   manual step (see docs/STREAMING.md)
#   ./scripts/test-tiers.sh dist    the distributed-CV tier: tests/dist
#                                   (wire format, shard store parity, KV
#                                   fallthrough, coordinator scheduling,
#                                   subprocess worker e2e incl. kill-fault
#                                   reassignment) plus the fold-claims
#                                   race suite, then a smoke-mode run of
#                                   the dist scaling bench so the harness
#                                   can't rot; full-scale numbers + the
#                                   regression gate on BENCH_dist.json
#                                   are a separate manual step (see
#                                   docs/DISTRIBUTED.md)
#   ./scripts/test-tiers.sh full    tier 1 + slow, then tier 1 again with
#                                   REPRO_WORKERS=2 so every fold-parallel
#                                   code path runs through the fork pool
#   ./scripts/test-tiers.sh perf    the differential-equivalence harness
#                                   (tests/equivalence: vectorized hot
#                                   paths vs the tests/oracles package,
#                                   bitwise) plus a smoke-mode run of the
#                                   hot-path bench to keep the perf
#                                   harness itself from rotting; full-
#                                   scale numbers + the regression gate
#                                   are a separate manual step (see
#                                   docs/PERFORMANCE.md)
#
# Run from the repository root.  Extra arguments pass through to pytest.
set -eu

tier="${1:-fast}"
[ $# -gt 0 ] && shift

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

case "$tier" in
    fast)
        python -m pytest tests/ -m "not slow" "$@"
        ;;
    faults)
        python -m pytest tests/resilience/ "$@"
        ;;
    serve)
        python -m pytest tests/serve/ "$@"
        python -m pytest tests/serve/test_http.py tests/serve/test_tracing.py "$@"
        python scripts/serve_smoke.py
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_serve_latency.py "$@"
        ;;
    obs)
        python -m pytest tests/obs/ "$@"
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_obs_overhead.py "$@"
        ;;
    stream)
        python -m pytest tests/stream/ tests/equivalence/test_stream_equiv.py "$@"
        python -m pytest tests/test_cli.py -k stream "$@"
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_stream_pipeline.py "$@"
        ;;
    dist)
        python -m pytest tests/dist/ tests/resilience/test_journal_claims.py "$@"
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_dist_cv.py "$@"
        ;;
    full)
        python -m pytest tests/ "$@"
        REPRO_WORKERS=2 python -m pytest tests/ -m "not slow" "$@"
        ;;
    perf)
        python -m pytest tests/equivalence/ "$@"
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_hotpaths.py "$@"
        ;;
    kernels)
        python -m pytest tests/equivalence/ tests/kernels/ tests/parallel/ "$@"
        REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_hotpaths.py "$@"
        ;;
    *)
        echo "usage: $0 {fast|faults|serve|obs|stream|dist|full|perf|kernels} [pytest args...]" >&2
        exit 2
        ;;
esac

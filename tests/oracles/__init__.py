"""Reference oracles: the original, unoptimised implementations.

Every vectorized hot path in ``src/`` replaced a plain per-vertex,
per-pair or per-slot implementation.  Those originals live here, one
module per area (:mod:`.graph`, :mod:`.features`, :mod:`.core`,
:mod:`.kernels`, :mod:`.nn`), with their bodies unchanged: the oracle is
the contract.  ``tests/equivalence`` asserts the fast paths agree with
them (bitwise, or to the documented bound), and
``benchmarks/bench_hotpaths.py`` times the fast paths against them.

Nothing in ``src/`` imports from this package.
"""

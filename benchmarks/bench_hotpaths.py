"""Encoder hot paths: vectorized vs preserved reference oracles.

Times each vectorized stage against the original implementation it
replaced (the ``_reference_*`` oracles in ``tests/oracles``), checks the
outputs are *bitwise* identical while doing so, and records everything
to ``BENCH_hotpaths.json`` in the repo root:

* ``receptive_fields`` — lexsort table construction vs per-vertex BFS
  expansion (`core/receptive_field.py`),
* ``wl_feature_maps`` — dataset-batched np.unique label refinement vs
  the per-vertex dict loop (`features/vertex_maps.py`),
* ``sp_features`` — integer-encoded triplet binning vs the nested
  distance loop (`features/vertex_maps.py`),
* ``batched_bfs`` — frontier-matrix APSP vs a queue per source
  (`graph/traversal.py` / `graph/shortest_paths.py`),
* ``conv1d_forward`` / ``conv1d_backward`` — reshape-im2col GEMM and
  fancy-index scatter vs the gather/np.add.at original (`nn/conv1d.py`),
* ``gram_assembly`` — one-GEMM WL gram over stacked feature matrices vs
  the per-pair dot loop (`kernels/base.py`),
* ``fused_encode`` — the fused alignment/receptive-field/assemble path
  (one lexsort over the disjoint union, flat gathers) vs the staged
  per-graph composition (`core/pipeline.py`).

Speedups are machine-relative (both sides run on the same box in the
same process), so the JSON is comparable across machines;
``scripts/check_bench_regression.py`` gates on it.  Each stage runs in
``_CHILDREN`` fresh interpreters in turn, pinned to one CPU, with one
BLAS thread; each
times (vectorized, reference) *pairs* back to back, alternating which
side goes first, until it has run ``_MIN_PAIRS`` pairs and
``_MIN_SECONDS`` of wall clock (``time.perf_counter``, every stage),
and reports the median of its per-pair ratios.  The recorded speedup is
the median over the interpreters.  A host that slows down for a while
slows both halves of the pairs it overlaps, where separate best-of
blocks for each side drifted apart on a shared VM.  Equality checks:
every stage asserts *bitwise* identity with its oracle except WL,
which asserts *partition* equality — the splitmix64 radix remap
replaced the blake2b color values (one documented break; see
docs/PERFORMANCE.md) but may never move the partition.

``REPRO_BENCH_SMOKE=1`` shrinks the dataset and skips the speedup
assertions — wiring checks only, for the `perf`/`kernels` test tiers.
The full run asserts the tentpole acceptance: >= 3x on at least two of
{receptive fields, WL feature maps, Conv1D forward} at MUTAG scale,
plus the per-stage floors in ``acceptance.floors`` (WL remap and gram
assembly must each hold >= 3x on their own).

Run from the repository root with ``pytest benchmarks/bench_hotpaths.py -q``
or ``python -m benchmarks.bench_hotpaths``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks._common import print_header, print_table
from repro.core.alignment import centrality_scores, union_vertex_order
from repro.core.pipeline import EncodedDataset, _field_rows, _slot_table
from repro.core.receptive_field import (
    all_receptive_fields,
    all_receptive_fields_many,
)
from repro.datasets import make_dataset
from repro.features import FeatureTable, extract_vertex_feature_matrices
from repro.features.vertex_maps import (
    ShortestPathVertexFeatures,
    WLVertexFeatures,
    wl_stable_colors_many,
)
from repro.kernels.base import ExplicitFeatureKernel
from repro.graph.shortest_paths import apsp_bfs
from repro.nn.conv1d import Conv1D
from tests.oracles.core import (
    _reference_all_receptive_fields,
    _reference_encode_stages,
)
from tests.oracles.features import (
    _reference_feature_matrices,
    _reference_sp_vertex_counts,
    _reference_wl_stable_colors,
    counters,
)
from tests.oracles.graph import _reference_apsp_bfs
from tests.oracles.kernels import _reference_assemble_gram
from tests.oracles.nn import _reference_conv1d_backward, _reference_conv1d_forward

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Smoke runs exercise the harness without clobbering the committed
#: full-scale artifact that the regression gate treats as baseline.
_ARTIFACT = "BENCH_hotpaths.smoke.json" if SMOKE else "BENCH_hotpaths.json"
RESULT_PATH = Path(__file__).resolve().parent.parent / _ARTIFACT

#: Tentpole acceptance: >= MIN_SPEEDUP on >= MIN_STAGES of KEY_STAGES.
KEY_STAGES = ("receptive_fields", "wl_feature_maps", "conv1d_forward")
MIN_SPEEDUP = 3.0
MIN_STAGES = 2

#: Per-stage floors each gated individually (this PR's hot paths): the
#: WL radix remap and the one-GEMM gram assembly must hold on their own,
#: not just as members of the any-2-of-3 headline gate above.
STAGE_FLOORS = {"wl_feature_maps": 3.0, "gram_assembly": 3.0}

#: MUTAG at scale 1.0 is the acceptance configuration (188 graphs).
_SCALE = 0.05 if SMOKE else 1.0

#: Each stage runs in this many fresh interpreters, one after another ...
_CHILDREN = 1 if SMOKE else 5
#: ... each timing at least this many (vectorized, reference) pairs ...
_MIN_PAIRS = 1 if SMOKE else 5
#: ... and pairing until it has spent this much wall clock.
_MIN_SECONDS = 0.0 if SMOKE else 1.5

_RESULTS: dict[str, dict] = {}


def _graphs():
    return make_dataset("MUTAG", scale=_SCALE, seed=0).graphs


def _paired(vectorized, reference) -> tuple[dict, object, object]:
    """Time (vectorized, reference) pairs in alternation.

    Returns the timing record — median seconds of each side, the median
    of the per-pair ``reference / vectorized`` ratios as ``speedup``, and
    the pair count — plus one more return value of each side, for the
    equality checks.  Timed results are dropped at once, so no call runs
    while the previous one's output is held.
    """
    fns = (vectorized, reference)
    times: tuple[list[float], list[float]] = ([], [])
    began = time.perf_counter()
    while len(times[0]) < _MIN_PAIRS or time.perf_counter() - began < _MIN_SECONDS:
        for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
            start = time.perf_counter()
            fns[side]()
            times[side].append(time.perf_counter() - start)
    vec_s, ref_s = times
    record = {
        "reference_s": statistics.median(ref_s),
        "vectorized_s": statistics.median(vec_s),
        "speedup": statistics.median(r / v for r, v in zip(ref_s, vec_s)),
        "pairs": len(vec_s),
    }
    return record, vectorized(), reference()


#: Stage interpreters run BLAS on one thread, so a GEMM's speed does not
#: depend on whether another tenant holds the second CPU.
_STAGE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _isolated(stage) -> tuple[dict, dict]:
    """Run ``stage`` (a module-level stage body) in ``_CHILDREN`` fresh
    interpreters, one after another, all on the lowest CPU this process
    may use; the speedup is their median.

    A fresh interpreter starts from the same allocator state instead of
    the heap the stages before it left behind: on a 2-CPU VM, Conv1D
    forward read ~4x in a fresh process and ~9.7x after the four stages
    before it.  The CPU is fixed because on that VM the ratio depended
    on which one a child ran on (WL 6.5x on one, 7.5x on the other).
    """
    saved = {name: os.environ.get(name) for name in _STAGE_ENV}
    cpus = os.sched_getaffinity(0)
    os.environ.update(_STAGE_ENV)
    os.sched_setaffinity(0, {min(cpus)})  # spawned children inherit it
    try:
        spawn = multiprocessing.get_context("spawn")
        with spawn.Pool(1, maxtasksperchild=1) as pool:
            runs = [pool.apply(stage) for _ in range(_CHILDREN)]
    finally:
        os.sched_setaffinity(0, cpus)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    timings = [timing for timing, _ in runs]
    record = {
        name: statistics.median(t[name] for t in timings)
        for name in ("reference_s", "vectorized_s", "speedup")
    }
    record["child_speedups"] = [t["speedup"] for t in timings]
    record["pairs"] = sum(t["pairs"] for t in timings)
    return record, runs[0][1]


def _record(stage: str, timing: dict, extra: dict) -> None:
    _RESULTS[stage] = {**timing, **extra}
    _flush()
    print(
        f"  {stage:<18s} reference {timing['reference_s']:.4f}s  "
        f"vectorized {timing['vectorized_s']:.4f}s  "
        f"speedup {timing['speedup']:.2f}x over {timing['pairs']} pairs"
    )


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
        "timing": {
            "method": "median ratio of alternating (vectorized, reference) pairs",
            "clock": "time.perf_counter",
            "children": _CHILDREN,
            "cpu": "the lowest CPU in the process's affinity mask",
            "env": dict(_STAGE_ENV),
            "min_pairs": _MIN_PAIRS,
            "min_seconds": _MIN_SECONDS,
        },
        "smoke": SMOKE,
        "acceptance": {
            "key_stages": list(KEY_STAGES),
            "min_speedup": MIN_SPEEDUP,
            "min_stages": MIN_STAGES,
            "floors": dict(STAGE_FLOORS),
        },
    }
    results.setdefault("stages", {}).update(_RESULTS)
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def test_receptive_fields():
    print_header("Hot path: receptive-field table assembly")
    _record("receptive_fields", *_isolated(_receptive_fields))


def _receptive_fields():
    graphs = _graphs()
    r = 10
    scores = [centrality_scores(g, "eigenvector") for g in graphs]

    def vectorized():
        return [all_receptive_fields(g, r, s) for g, s in zip(graphs, scores)]

    def reference():
        return [
            _reference_all_receptive_fields(g, r, s)
            for g, s in zip(graphs, scores)
        ]

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    for a, b in zip(vec, ref):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
    return timing, dict(graphs=len(graphs), r=r)


def _same_partition(a: list, b: list) -> bool:
    """True iff colorings ``a`` and ``b`` group positions identically
    (a bijection between color values, checked both directions)."""
    fwd: dict = {}
    bwd: dict = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def test_wl_feature_maps():
    print_header("Hot path: WL stable-color refinement")
    _record("wl_feature_maps", *_isolated(_wl_feature_maps))


def _wl_feature_maps():
    graphs = _graphs()
    h = 3

    def vectorized():
        return wl_stable_colors_many(graphs, h)

    def reference():
        return [_reference_wl_stable_colors(g, h) for g in graphs]

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    # The splitmix64 remap changed the color *values* (documented break);
    # the *partition* must match the blake2b oracle jointly across the
    # whole dataset at every iteration.
    for it in range(h + 1):
        joint_vec = [c for table in vec for c in table[it]]
        joint_ref = [c for table in ref for c in table[it]]
        assert _same_partition(joint_vec, joint_ref), f"iteration {it}"
    return timing, dict(graphs=len(graphs), h=h)


def test_sp_features():
    print_header("Hot path: shortest-path feature binning")
    _record("sp_features", *_isolated(_sp_features))


def _sp_features():
    graphs = _graphs()
    extractor = ShortestPathVertexFeatures()

    def vectorized():
        return extractor.extract(graphs)

    def reference():
        return [_reference_sp_vertex_counts(g, None) for g in graphs]

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    assert counters(vec, graphs) == ref
    return timing, dict(graphs=len(graphs))


def test_batched_bfs():
    print_header("Hot path: all-pairs BFS distances")
    _record("batched_bfs", *_isolated(_batched_bfs))


def _batched_bfs():
    graphs = _graphs()

    def vectorized():
        return [apsp_bfs(g) for g in graphs]

    def reference():
        return [_reference_apsp_bfs(g) for g in graphs]

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    for a, b in zip(vec, ref):
        assert a.tobytes() == b.tobytes()
    return timing, dict(graphs=len(graphs))


def _conv_setup():
    # DeepMap's convolution regime: kernel == stride == r over w*r slots,
    # sized to a MUTAG-scale encoded batch (smaller in smoke mode).
    r, w = (4, 5) if SMOKE else (10, 18)
    batch, cin, cout = (8, 6, 4) if SMOKE else (64, 32, 16)
    layer = Conv1D(cin, cout, r, stride=r, rng=0)
    x = np.random.default_rng(0).normal(size=(batch, w * r, cin))
    return layer, x, r


def test_conv1d_forward():
    print_header("Hot path: Conv1D forward (im2col GEMM)")
    _record("conv1d_forward", *_isolated(_conv1d_forward))


def _conv1d_forward():
    layer, x, r = _conv_setup()

    def vectorized():
        return layer.forward(x)

    def reference():
        return _reference_conv1d_forward(
            x, layer.weight.value, layer.bias.value, r, r
        )

    vectorized()  # warmup
    timing, vec, ref = _paired(
        lambda: [vectorized() for _ in range(20)],
        lambda: [reference() for _ in range(20)],
    )
    assert vec[0].tobytes() == ref[0].tobytes()
    return timing, dict(batch=x.shape[0], length=x.shape[1])


def test_conv1d_backward():
    print_header("Hot path: Conv1D backward (scatter)")
    _record("conv1d_backward", *_isolated(_conv1d_backward))


def _conv1d_backward():
    layer, x, r = _conv_setup()
    out = layer.forward(x)
    grad = np.random.default_rng(1).normal(size=out.shape)

    def vectorized():
        layer.forward(x)
        layer.weight.grad[...] = 0.0
        layer.bias.grad[...] = 0.0
        return layer.backward(grad)

    def reference():
        return _reference_conv1d_backward(x, layer.weight.value, grad, r, r)

    vectorized()  # warmup
    timing, vec, ref = _paired(
        lambda: [vectorized() for _ in range(20)],
        lambda: [reference() for _ in range(20)],
    )
    assert vec[0].tobytes() == ref[0][0].tobytes()
    return timing, dict(batch=x.shape[0], length=x.shape[1])


def test_gram_assembly():
    print_header("Hot path: one-GEMM gram assembly (WL features)")
    _record("gram_assembly", *_isolated(_gram_assembly))


def _gram_assembly():
    graphs = _graphs()
    kernel = ExplicitFeatureKernel(WLVertexFeatures(h=3))
    # Feature extraction is shared by both assemblies (and benched on its
    # own as wl_feature_maps); time the assembly step alone.
    phi = kernel.feature_map(graphs)

    def vectorized():
        return kernel._assemble_gram(phi)

    def reference():
        return _reference_assemble_gram(phi)

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    # Integer-valued counts < 2^53: the GEMM is bitwise-exact.
    assert vec.tobytes() == ref.tobytes() and vec.dtype == ref.dtype
    return timing, dict(graphs=len(graphs), h=3, feature_dim=int(phi.shape[1]))


def test_fused_encode():
    print_header("Hot path: fused encode (alignment -> fields -> assemble)")
    _record("fused_encode", *_isolated(_fused_encode))


def _fused_encode():
    graphs = _graphs()
    r = 10
    table, _ = extract_vertex_feature_matrices(graphs, ShortestPathVertexFeatures())
    matrices, vocab = _reference_feature_matrices(graphs, ShortestPathVertexFeatures())
    w = max(g.n for g in graphs)
    m = vocab.size

    def vectorized():
        # The body of DeepMapEncoder.encode, minus cache/obs wrapping,
        # then take_rows of every graph: the dense tensor the reference
        # assembles from dense per-graph matrices.
        scores = [centrality_scores(g, "eigenvector") for g in graphs]
        union = union_vertex_order(graphs, scores)
        slots = _slot_table(union, w)
        fields = all_receptive_fields_many(graphs, r, scores, union=union)
        indptr = np.append(table.indptr, table.indptr[-1])
        features = FeatureTable(indptr, table.indices, table.values, m)
        rows = _field_rows(slots, fields, union, r, len(table))
        encoded = EncodedDataset(features, rows, slots, w, r)
        return encoded.take_rows(np.arange(len(graphs))), encoded.vertex_mask

    def reference():
        return _reference_encode_stages(graphs, matrices, w, r, m)

    vectorized()  # warmup
    timing, vec, ref = _paired(vectorized, reference)
    assert vec[0].tobytes() == ref[0].tobytes()
    assert vec[1].tobytes() == ref[1].tobytes()
    return timing, dict(graphs=len(graphs), r=r, w=w, m=m)


def test_acceptance_summary():
    """>= 3x on >= 2 key stages (full mode); always prints the table."""
    rows = [
        [s, f"{d['reference_s']:.4f}", f"{d['vectorized_s']:.4f}", f"{d['speedup']:.2f}x"]
        for s, d in sorted(_RESULTS.items())
    ]
    print_header("Hot-path speedup summary")
    print_table(["stage", "reference_s", "vectorized_s", "speedup"], rows)
    if SMOKE:
        return
    fast = [s for s in KEY_STAGES if _RESULTS.get(s, {}).get("speedup", 0) >= MIN_SPEEDUP]
    assert len(fast) >= MIN_STAGES, (
        f"need >= {MIN_SPEEDUP}x on >= {MIN_STAGES} of {KEY_STAGES}, "
        f"got {[(s, round(_RESULTS.get(s, {}).get('speedup', 0), 2)) for s in KEY_STAGES]}"
    )
    for stage, floor in STAGE_FLOORS.items():
        got = _RESULTS.get(stage, {}).get("speedup", 0)
        assert got >= floor, f"{stage}: speedup {got:.2f}x below floor {floor}x"


def main() -> None:
    test_receptive_fields()
    test_wl_feature_maps()
    test_sp_features()
    test_batched_bfs()
    test_conv1d_forward()
    test_conv1d_backward()
    test_gram_assembly()
    test_fused_encode()
    test_acceptance_summary()
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()

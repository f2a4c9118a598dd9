"""Vectorized encoder under the fork pool: serial == parallel, bitwise.

The hot-path vectorization (batched BFS, lexsort receptive fields,
np.unique WL refinement, im2col Conv1D) must not introduce any
worker-count dependence: encoding the same fold payload in a forked
worker has to produce byte-identical tensors to the in-process loop.
These tests drive :func:`repro.parallel.run_folds` directly over the
vectorized encode path and compare raw bytes across worker counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DeepMapEncoder
from repro.features import WLVertexFeatures, extract_vertex_feature_matrices
from repro.parallel import parallelism_available, run_folds

pytestmark = pytest.mark.skipif(
    not parallelism_available(), reason="fork pool unavailable on this platform"
)


def _encode_chunk(context, payload):
    """Fold body: encode one chunk of the dataset, return digest + bytes."""
    graphs = context
    lo, hi = payload
    chunk = graphs[lo:hi]
    table, _ = extract_vertex_feature_matrices(chunk, WLVertexFeatures(h=2))
    encoded = DeepMapEncoder(r=4).fit(chunk).encode(chunk, table)
    tensors = encoded.take_rows(np.arange(len(chunk)))
    digest = hashlib.blake2b(
        tensors.tobytes() + encoded.vertex_mask.tobytes(), digest_size=16
    ).hexdigest()
    return {
        "digest": digest,
        "tensors": tensors,
        "mask": encoded.vertex_mask,
        "shape": tensors.shape,
    }


def _chunks(n_graphs: int, n_folds: int) -> list[tuple[int, int]]:
    step = max(1, n_graphs // n_folds)
    return [(lo, min(lo + step, n_graphs)) for lo in range(0, n_graphs, step)]


class TestEncodeParity:
    @pytest.fixture(scope="class")
    def graphs(self, cv_dataset):
        return cv_dataset.graphs

    def test_serial_and_parallel_encode_bitwise_identical(self, graphs):
        payloads = _chunks(len(graphs), 4)
        serial = run_folds(_encode_chunk, payloads, context=graphs, workers=1)
        forked = run_folds(_encode_chunk, payloads, context=graphs, workers=2)
        assert len(serial) == len(forked) == len(payloads)
        for s, f in zip(serial, forked):
            assert f["digest"] == s["digest"]
            assert f["shape"] == s["shape"]
            assert f["tensors"].tobytes() == s["tensors"].tobytes()
            assert f["mask"].tobytes() == s["mask"].tobytes()

    def test_worker_count_irrelevant(self, graphs):
        """2, 3, and 4 workers all reproduce the same fold digests."""
        payloads = _chunks(len(graphs), 4)
        baseline = [r["digest"] for r in run_folds(
            _encode_chunk, payloads, context=graphs, workers=1
        )]
        for workers in (2, 3, 4):
            digests = [r["digest"] for r in run_folds(
                _encode_chunk, payloads, context=graphs, workers=workers
            )]
            assert digests == baseline, f"workers={workers}"

    def test_parallel_tensors_are_real_arrays(self, graphs):
        """Pickled-across-the-pipe tensors stay float64 and C-contiguous."""
        payloads = _chunks(len(graphs), 2)
        for result in run_folds(_encode_chunk, payloads, context=graphs, workers=2):
            t = result["tensors"]
            assert t.dtype == np.float64 and t.flags["C_CONTIGUOUS"]
            assert np.isfinite(t).all()

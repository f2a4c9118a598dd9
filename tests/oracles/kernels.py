"""Gram-matrix oracles: the original per-pair assemblies behind
:class:`~repro.kernels.base.ExplicitFeatureKernel`,
:class:`~repro.kernels.retgk.ReturnProbabilityKernel` and
:class:`~repro.kernels.optimal_assignment.WLOptimalAssignmentKernel`.

Each was a method of its kernel; here each is a function that takes the
kernel as its first argument.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.features.vertex_maps import wl_stable_colors
from repro.graph.graph import Graph
from repro.kernels.retgk import return_probability_features


def _reference_explicit_gram(kernel, graphs: list[Graph]) -> np.ndarray:
    """Per-pair gram assembly (oracle for tests/equivalence)."""
    return _reference_assemble_gram(kernel.feature_map(graphs))


def _reference_assemble_gram(phi: np.ndarray) -> np.ndarray:
    """Original assembly: one Python-loop dot product per (i, j)
    pair — the oracle the benchmark's ``gram_assembly`` stage times
    the GEMM against (feature extraction, common to both, excluded)."""
    n = phi.shape[0]
    k = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = float(np.dot(phi[i], phi[j]))
    return k


def _reference_retgk_gram(kernel, graphs: list[Graph]) -> np.ndarray:
    """Original per-pair assembly (oracle for tests/equivalence)."""
    feats = [return_probability_features(g, kernel.steps) for g in graphs]
    gamma = kernel.gamma if kernel.gamma is not None else kernel._median_gamma(feats)
    n = len(graphs)
    k = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = _retgk_pair(
                kernel, graphs[i], feats[i], graphs[j], feats[j], gamma
            )
    return k


def _retgk_pair(
    kernel,
    g1: Graph,
    f1: np.ndarray,
    g2: Graph,
    f2: np.ndarray,
    gamma: float,
) -> float:
    if g1.n == 0 or g2.n == 0:
        return 0.0
    sq = (
        (f1**2).sum(axis=1)[:, None]
        + (f2**2).sum(axis=1)[None, :]
        - 2.0 * f1 @ f2.T
    )
    rbf = np.exp(-gamma * np.maximum(sq, 0.0))
    if kernel.use_labels:
        rbf = rbf * (g1.labels[:, None] == g2.labels[None, :])
    return float(rbf.sum() / (g1.n * g2.n))


def _histograms(kernel, g: Graph) -> list[Counter]:
    return [Counter(colors) for colors in wl_stable_colors(g, kernel.h)]


def _reference_wloa_gram(kernel, graphs: list[Graph]) -> np.ndarray:
    """Original per-pair Counter assembly (oracle for tests/equivalence)."""
    histograms = [_histograms(kernel, g) for g in graphs]
    n = len(graphs)
    k = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            total = 0.0
            for hi, hj in zip(histograms[i], histograms[j]):
                small, large = (hi, hj) if len(hi) <= len(hj) else (hj, hi)
                total += sum(
                    min(count, large[color])
                    for color, count in small.items()
                    if color in large
                )
            k[i, j] = k[j, i] = total
    return k

"""Graph kernel base classes and gram-matrix utilities.

Two kernel families appear in the paper's evaluation:

* *explicit-feature* R-convolution kernels (GK, SP, WL) whose gram matrix
  is a dot product of count vectors — :class:`ExplicitFeatureKernel`;
* *implicit* kernels (random walk, RetGK, GNTK, DGK) that define the gram
  matrix pairwise — they subclass :class:`GraphKernel` directly.

Both produce a symmetric positive-semidefinite gram matrix over a list of
graphs; SVM training then indexes rows/columns per cross-validation fold.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.features.vertex_maps import VertexFeatureExtractor, graph_feature_maps
from repro.graph.graph import Graph

__all__ = ["GraphKernel", "ExplicitFeatureKernel", "normalize_gram", "validate_gram"]


class GraphKernel(ABC):
    """A positive-semidefinite similarity function on graphs."""

    #: identifier used in benchmark reports
    name: str = "kernel"

    @abstractmethod
    def gram(self, graphs: list[Graph]) -> np.ndarray:
        """Symmetric ``(n, n)`` gram matrix over ``graphs``."""

    def normalized_gram(self, graphs: list[Graph]) -> np.ndarray:
        """Gram matrix with unit diagonal (cosine normalisation)."""
        return normalize_gram(self.gram(graphs))


class ExplicitFeatureKernel(GraphKernel):
    """Kernel defined by an explicit substructure count feature map.

    ``K(G_i, G_j) = <phi(G_i), phi(G_j)>`` with ``phi`` from Equation 1 /
    Equation 7 (sum of the vertex feature maps of the wrapped extractor).
    """

    def __init__(self, extractor: VertexFeatureExtractor) -> None:
        self.extractor = extractor
        self.name = extractor.name

    def feature_map(self, graphs: list[Graph]) -> np.ndarray:
        """Explicit ``(n_graphs, m)`` feature-map matrix."""
        phi, _ = graph_feature_maps(graphs, self.extractor)
        return phi

    def gram(self, graphs: list[Graph]) -> np.ndarray:
        """One GEMM over the stacked per-graph feature rows.

        Bitwise-equal to the per-pair assembly in ``tests/oracles/kernels.py``
        because every ``phi`` entry is an integer-valued substructure
        count: all products and partial sums stay below 2^53, where
        float64 arithmetic is exact under any association order, so BLAS
        blocking cannot drift (pinned in
        ``tests/equivalence/test_gram_equiv.py``).
        """
        return self._assemble_gram(self.feature_map(graphs))

    @staticmethod
    def _assemble_gram(phi: np.ndarray) -> np.ndarray:
        """The assembly step alone: one GEMM over stacked feature rows."""
        return phi @ phi.T


def normalize_gram(k: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Cosine-normalise a gram matrix: ``K'_ij = K_ij / sqrt(K_ii K_jj)``.

    Rows/columns with (near-)zero self-similarity are left zero except for
    a unit diagonal, so the result is still PSD with unit diagonal.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {k.shape}")
    diag = np.diag(k).copy()
    safe = np.where(diag > eps, diag, 1.0)
    scale = 1.0 / np.sqrt(safe)
    out = k * scale[:, None] * scale[None, :]
    zero = diag <= eps
    if zero.any():
        out[zero, :] = 0.0
        out[:, zero] = 0.0
    np.fill_diagonal(out, 1.0)
    return out


def validate_gram(k: np.ndarray, tol: float = 1e-8) -> None:
    """Raise ``ValueError`` if ``k`` is not symmetric PSD within ``tol``.

    Used by tests and by the SVM layer in strict mode
    (``KernelSVC(validate=True)`` runs it on every training gram slice).
    """
    if not np.allclose(k, k.T, atol=tol):
        raise ValueError("gram matrix is not symmetric")
    eigvals = np.linalg.eigvalsh((k + k.T) / 2.0)
    if eigvals.size and eigvals.min() < -tol * max(1.0, abs(eigvals.max())):
        raise ValueError(f"gram matrix is not PSD (min eigenvalue {eigvals.min():g})")

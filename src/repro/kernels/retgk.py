"""RetGK — graph kernels from return probabilities of random walks
(Zhang et al., NeurIPS 2018).

Each vertex ``v`` is described by its *return probability feature* (RPF)

    rp(v) = [ (P^1)_{vv}, (P^2)_{vv}, ..., (P^S)_{vv} ]

where ``P = D^{-1} A`` is the random-walk transition matrix.  The RPF is an
isomorphism-invariant structural role descriptor.  Graphs are compared by
the (label-aware) maximum mean discrepancy embedding with an RBF kernel on
RPF vectors:

    K(G1, G2) = (1 / (n1 * n2)) * sum_{u in G1} sum_{v in G2}
                delta(l(u), l(v)) * exp(-gamma * ||rp(u) - rp(v)||^2)

This is the RetGK-I variant of the paper restricted to discrete vertex
labels, which is what the benchmark datasets provide.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.kernels.base import GraphKernel
from repro.utils.validation import check_positive

__all__ = ["ReturnProbabilityKernel", "return_probability_features"]


def return_probability_features(g: Graph, steps: int) -> np.ndarray:
    """``(n, steps)`` matrix of return probabilities for walks of 1..steps."""
    check_positive("steps", steps)
    a = g.adjacency_matrix()
    deg = a.sum(axis=1)
    deg[deg == 0] = 1.0
    p = a / deg[:, None]
    out = np.empty((g.n, steps), dtype=np.float64)
    power = np.eye(g.n)
    for s in range(steps):
        power = power @ p
        out[:, s] = np.diag(power)
    return out


class ReturnProbabilityKernel(GraphKernel):
    """RetGK-I with discrete labels and an RBF kernel on RPF vectors.

    Parameters
    ----------
    steps:
        Random-walk horizon ``S`` (paper uses 50; smaller horizons retain
        nearly all signal on the benchmark graph sizes).
    gamma:
        RBF bandwidth; ``None`` selects the median heuristic over all
        pairwise RPF distances in the dataset.
    use_labels:
        If True (default), only label-matching vertex pairs contribute.
    """

    name = "retgk"

    def __init__(
        self,
        steps: int = 16,
        gamma: float | None = None,
        use_labels: bool = True,
    ) -> None:
        check_positive("steps", steps)
        if gamma is not None:
            check_positive("gamma", gamma)
        self.steps = steps
        self.gamma = gamma
        self.use_labels = use_labels

    #: Row-block budget (vertices) for the stacked-GEMM gram assembly.
    _BLOCK_VERTICES = 1024

    def gram(self, graphs: list[Graph]) -> np.ndarray:
        """Stacked-GEMM gram assembly.

        All RPF matrices are vstacked into one ``(total_vertices, steps)``
        matrix; squared distances come from one GEMM per row block
        (``_BLOCK_VERTICES`` rows at a time, bounding memory), and the
        per-pair double sums collapse to two ``np.add.reduceat`` segment
        reductions over the graph boundaries.  The result is symmetrized
        explicitly (``(B + B^T) / 2``) because blocked BLAS products are
        not exactly symmetric.

        Values match the per-pair oracle in ``tests/oracles/kernels.py``
        to ulp precision only: BLAS reassociates the GEMM and
        ``reduceat`` reassociates the sums, and ``exp`` amplifies those
        last-bit differences.  The documented bound
        (``tests/equivalence/test_gram_equiv.py``) is ``rtol=1e-9``.
        """
        feats = [return_probability_features(g, self.steps) for g in graphs]
        gamma = self.gamma if self.gamma is not None else self._median_gamma(feats)
        n = len(graphs)
        k = np.zeros((n, n), dtype=np.float64)
        nonempty = [i for i in range(n) if graphs[i].n > 0]
        if not nonempty:
            return k
        sizes = np.asarray([graphs[i].n for i in nonempty], dtype=np.int64)
        stacked = np.concatenate([feats[i] for i in nonempty], axis=0)
        labels = np.concatenate([graphs[i].labels for i in nonempty])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        sq_norms = (stacked**2).sum(axis=1)
        block = np.empty((len(nonempty), len(nonempty)), dtype=np.float64)
        gi_lo = 0
        while gi_lo < len(nonempty):
            # Grow the row block graph by graph up to the vertex budget
            # (always at least one graph, so oversized graphs still fit).
            gi_hi = gi_lo + 1
            while (
                gi_hi < len(nonempty)
                and starts[gi_hi] + sizes[gi_hi] - starts[gi_lo]
                <= self._BLOCK_VERTICES
            ):
                gi_hi += 1
            lo = int(starts[gi_lo])
            hi = int(starts[gi_hi - 1] + sizes[gi_hi - 1])
            sq = (
                sq_norms[lo:hi, None]
                + sq_norms[None, :]
                - 2.0 * (stacked[lo:hi] @ stacked.T)
            )
            rbf = np.exp(-gamma * np.maximum(sq, 0.0))
            if self.use_labels:
                rbf *= labels[lo:hi, None] == labels[None, :]
            # Collapse vertex rows/columns to graph blocks: one segment
            # sum over columns, one over the block's own row segments.
            cols = np.add.reduceat(rbf, starts, axis=1)  # (hi - lo, G)
            block[gi_lo:gi_hi] = np.add.reduceat(cols, starts[gi_lo:gi_hi] - lo, axis=0)
            gi_lo = gi_hi
        block /= sizes[:, None] * sizes[None, :]
        k[np.ix_(nonempty, nonempty)] = 0.5 * (block + block.T)
        return k

    @staticmethod
    def _median_gamma(feats: list[np.ndarray]) -> float:
        """Median-heuristic bandwidth over a subsample of RPF vectors."""
        stacked = np.concatenate([f for f in feats if f.size], axis=0)
        if stacked.shape[0] > 512:
            idx = np.linspace(0, stacked.shape[0] - 1, 512).astype(int)
            stacked = stacked[idx]
        diffs = stacked[:, None, :] - stacked[None, :, :]
        sq = (diffs**2).sum(axis=-1)
        med = np.median(sq[np.triu_indices_from(sq, k=1)]) if sq.shape[0] > 1 else 1.0
        return 1.0 / max(float(med), 1e-8)

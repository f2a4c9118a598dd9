"""WL optimal assignment kernel (Kriege, Giscard & Wilson, NeurIPS 2016).

Reference [21] of the paper: the optimal assignment between two graphs'
vertices under the WL color hierarchy has a closed form — the histogram
intersection of color counts summed over all refinement iterations:

    K(G1, G2) = sum_{i=0..h} sum_{color c} min(n_c^i(G1), n_c^i(G2))

The min (histogram-intersection) kernel is positive semidefinite, and
because the colors form a hierarchy (iteration i+1 refines iteration i),
this value equals the optimal vertex assignment score.

Colors come from :func:`repro.features.wl_stable_colors_many`, whose stable
hashes align identical subtree patterns across graphs with no shared
dictionary.
"""

from __future__ import annotations

import numpy as np

from repro.features.vertex_maps import wl_stable_colors_many
from repro.graph.graph import Graph
from repro.kernels.base import GraphKernel

__all__ = ["WLOptimalAssignmentKernel"]


class WLOptimalAssignmentKernel(GraphKernel):
    """Histogram-intersection WL kernel (valid optimal assignment).

    The gram value depends only on the *partition* each WL iteration
    induces (which vertices share a color, within and across graphs),
    never on the numeric color values — so it is bitwise-invariant under
    color-scheme changes such as the blake2b → splitmix64 radix remap of
    :func:`repro.features.wl_stable_colors_many`
    (``tests/equivalence/test_gram_equiv.py`` pins the values).
    """

    name = "wl-oa"

    #: Upper bound on ``rows x graphs x colors`` int64 elements held live
    #: by one chunk of the vectorized histogram intersection (~32 MiB).
    _CHUNK_ELEMENTS = 4_000_000

    def __init__(self, h: int = 3) -> None:
        if h < 0:
            raise ValueError(f"h must be >= 0, got {h}")
        self.h = h

    def gram(self, graphs: list[Graph]) -> np.ndarray:
        """Vectorized count-matrix assembly.

        Per iteration, one ``np.unique`` over the dataset's flat colors
        builds a ``(n_graphs, n_colors)`` integer count matrix; the
        histogram intersection collapses to
        ``min(a, b) = (a + b - |a - b|) / 2`` summed over colors, i.e.
        row-sum broadcasts minus a pairwise L1 distance, computed in row
        chunks.  All arithmetic is exact (integer counts, halved even
        integers), so the result is *bitwise* equal to the per-pair
        Counter assembly in ``tests/oracles/kernels.py``.
        """
        n = len(graphs)
        k = np.zeros((n, n), dtype=np.float64)
        if n == 0:
            return k
        tables = wl_stable_colors_many(graphs, self.h)
        sizes = np.asarray([g.n for g in graphs], dtype=np.int64)
        gid = np.repeat(np.arange(n), sizes)
        for it in range(self.h + 1):
            flat = np.asarray(
                [c for table in tables for c in table[it]], dtype=np.uint64
            )
            if flat.size == 0:
                continue
            _, codes = np.unique(flat, return_inverse=True)
            codes = codes.ravel()
            n_colors = int(codes.max()) + 1
            counts = np.bincount(
                gid * n_colors + codes, minlength=n * n_colors
            ).reshape(n, n_colors)
            totals = counts.sum(axis=1)  # == sizes (one color per vertex)
            chunk = max(1, self._CHUNK_ELEMENTS // max(1, n * n_colors))
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                l1 = np.abs(counts[lo:hi, None, :] - counts[None, :, :]).sum(axis=2)
                k[lo:hi] += 0.5 * (totals[lo:hi, None] + totals[None, :] - l1)
        return k

"""Walk-based vertex features.

Walks are the fourth substructure family the paper lists alongside
graphlets, paths, and subtrees (Section 1: "walks [5], [6]").  The
random-walk kernel counts common label sequences of walks; its natural
vertex feature map assigns to each vertex the multiset of label
sequences of walks *starting* at it, so that Equation 7 reproduces the
graph-level walk count vector.

Two extractors:

* :class:`LabeledWalkVertexFeatures` — exact counts of label sequences
  of walks of length <= L (dynamic programming over the adjacency
  structure; alphabet growth bounds practical L at ~4);
* :class:`ReturnProbabilityVertexFeatures` — RetGK's structural-role
  descriptor (return probabilities over 1..S steps) discretised into
  count features so it fits the count-vector API.
"""

from __future__ import annotations

import numpy as np

from repro.features.vertex_maps import VertexCounts, VertexFeatureExtractor
from repro.graph.graph import Graph
from repro.kernels.retgk import return_probability_features
from repro.utils.validation import check_positive

__all__ = ["LabeledWalkVertexFeatures", "ReturnProbabilityVertexFeatures"]


class LabeledWalkVertexFeatures(VertexFeatureExtractor):
    """Counts of labeled walks of length 1..L starting at each vertex.

    Feature key: ``("walk", (l_0, l_1, ..., l_k))`` — the label sequence
    along the walk (vertex revisits allowed, as in walk kernels).
    """

    name = "rwf"

    def __init__(self, length: int = 3) -> None:
        check_positive("length", length)
        self.length = length

    def extract(self, graphs: list[Graph]) -> VertexCounts:
        return VertexCounts.from_dicts(row for g in graphs for row in self._walks(g))

    def _walks(self, g: Graph) -> list[dict[tuple, int]]:
        """Per start vertex, ``{("walk", label sequence): count}``."""
        labels = [int(l) for l in g.labels]
        out = []
        for start in range(g.n):
            found: dict[tuple, int] = {}
            # DP over walk endpoints: vertex -> {label sequence: count}.
            current: dict[int, dict[tuple, int]] = {start: {(labels[start],): 1}}
            for _ in range(self.length):
                nxt: dict[int, dict[tuple, int]] = {}
                for v, sequences in current.items():
                    for u in g.neighbors(v):
                        ui = int(u)
                        bucket = nxt.setdefault(ui, {})
                        for seq, count in sequences.items():
                            key = seq + (labels[ui],)
                            bucket[key] = bucket.get(key, 0) + count
                            walk = ("walk", key)
                            found[walk] = found.get(walk, 0) + count
                current = nxt
            out.append(found)
        return out


class ReturnProbabilityVertexFeatures(VertexFeatureExtractor):
    """RetGK return-probability features, discretised into count bins.

    For each step ``s`` in 1..steps, the return probability ``p_s(v)`` is
    mapped to the key ``("rp", s, floor(p_s * bins))`` — an
    isomorphism-invariant structural-role fingerprint usable by DeepMap.
    """

    name = "rpf"

    def __init__(self, steps: int = 8, bins: int = 10) -> None:
        check_positive("steps", steps)
        check_positive("bins", bins)
        self.steps = steps
        self.bins = bins

    def extract(self, graphs: list[Graph]) -> VertexCounts:
        # Row v lists steps 1..S in order; code s * bins + level names
        # the key ("rp", s + 1, level).
        levels = np.concatenate(
            [np.zeros((0, self.steps))]
            + [return_probability_features(g, self.steps) for g in graphs]
        )
        levels = np.minimum((levels * self.bins).astype(np.int64), self.bins - 1)
        codes = (np.arange(self.steps) * self.bins + levels).reshape(-1)
        uniq, columns = np.unique(codes, return_inverse=True)
        keys = [("rp", c // self.bins + 1, c % self.bins) for c in uniq.tolist()]
        owner = np.repeat(np.arange(len(levels)), self.steps)
        return VertexCounts.from_entries(owner, len(levels), columns, keys)

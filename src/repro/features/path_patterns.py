"""Path-pattern vertex features (the Tree++ kernel's decomposition).

Tree++ (Ye et al., TKDE 2019 — reference [8] of the paper) represents a
graph by the label sequences of root-to-node paths in a truncated BFS
tree rooted at every vertex, optionally replacing each label by a WL
color ("super paths") to compare graphs at coarser granularities.

Implemented as a :class:`VertexFeatureExtractor` so it plugs into both
the kernel machinery (:class:`repro.kernels.TreePlusPlusKernel`) and
DeepMap itself — the paper notes "DeepMap can be built on the vertex
feature maps of any substructures".
"""

from __future__ import annotations

from collections import deque

from repro.features.vertex_maps import VertexCounts, VertexFeatureExtractor, wl_stable_colors
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = ["PathPatternVertexFeatures"]


class PathPatternVertexFeatures(VertexFeatureExtractor):
    """Root-to-node path patterns from truncated BFS trees.

    Parameters
    ----------
    depth:
        BFS truncation depth ``d`` (path length <= d edges).
    super_path_h:
        0 uses raw vertex labels (the plain path-pattern kernel);
        ``h > 0`` replaces every label with the vertex's stable WL color
        at iteration ``h`` — Tree++'s super-path construction, which
        encodes a depth-``h`` subtree at every path position.
    """

    name = "treepp"

    def __init__(self, depth: int = 2, super_path_h: int = 0) -> None:
        check_positive("depth", depth)
        if super_path_h < 0:
            raise ValueError(f"super_path_h must be >= 0, got {super_path_h}")
        self.depth = depth
        self.super_path_h = super_path_h

    def extract(self, graphs: list[Graph]) -> VertexCounts:
        return VertexCounts.from_dicts(row for g in graphs for row in self._paths(g))

    def _paths(self, g: Graph) -> list[dict]:
        if self.super_path_h > 0:
            colors = wl_stable_colors(g, self.super_path_h)[-1]
        else:
            colors = [int(l) for l in g.labels]
        return [self._root_paths(g, root, colors) for root in range(g.n)]

    def _root_paths(self, g: Graph, root: int, colors: list[int]) -> dict:
        """Count label sequences of root-to-node paths in the truncated
        BFS tree rooted at ``root`` (the root's own label included)."""
        counter = {("path", (colors[root],)): 1}
        visited = {root}
        # queue of (vertex, path-of-colors, depth)
        queue: deque = deque([(root, (colors[root],), 0)])
        while queue:
            v, path, depth = queue.popleft()
            if depth == self.depth:
                continue
            for u in g.neighbors(v):
                ui = int(u)
                if ui in visited:
                    continue
                visited.add(ui)
                new_path = path + (colors[ui],)
                key = ("path", new_path)
                counter[key] = counter.get(key, 0) + 1
                queue.append((ui, new_path, depth + 1))
        return counter

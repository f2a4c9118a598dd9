"""Core immutable graph type used throughout the library.

The paper works with undirected vertex-labeled graphs
``G = (V, E, l)`` where ``l`` maps vertices to a finite label alphabet.
:class:`Graph` stores the structure in CSR (compressed sparse row) form —
one flat neighbor array plus per-vertex offsets — which makes neighbor
iteration, BFS, and degree queries allocation-free and fast, while staying
simple enough to reason about in tests.

Vertices are always the integers ``0 .. n-1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["Graph"]


class Graph:
    """Undirected vertex-labeled graph with CSR adjacency.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates and self-loops are
        rejected (the benchmark graphs are simple graphs).
    labels:
        Optional integer label per vertex.  When omitted, every vertex
        gets label ``0``.

    Notes
    -----
    Instances are immutable: all arrays are flagged non-writeable, and the
    derived quantities (degree sequence, edge list) are computed once.
    """

    __slots__ = ("n", "_indptr", "_indices", "_labels", "_edges", "_hash")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[int] | None = None,
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self.n = int(num_vertices)

        edge_list = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            edge_list.append(key)

        self._edges = np.array(sorted(edge_list), dtype=np.int64).reshape(-1, 2)

        # Build CSR adjacency from the symmetrised edge list.
        if self._edges.size:
            both = np.concatenate([self._edges, self._edges[:, ::-1]])
            order = np.lexsort((both[:, 1], both[:, 0]))
            both = both[order]
            counts = np.bincount(both[:, 0], minlength=self.n)
            self._indices = np.ascontiguousarray(both[:, 1])
        else:
            counts = np.zeros(self.n, dtype=np.int64)
            self._indices = np.empty(0, dtype=np.int64)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        if labels is None:
            self._labels = np.zeros(self.n, dtype=np.int64)
        else:
            self._labels = np.asarray(list(labels), dtype=np.int64)
            if self._labels.shape != (self.n,):
                raise ValueError(
                    f"labels must have length {self.n}, got {self._labels.shape}"
                )
            if self._labels.size and self._labels.min() < 0:
                raise ValueError("labels must be non-negative integers")

        for arr in (self._indptr, self._indices, self._labels, self._edges):
            arr.flags.writeable = False
        self._hash: int | None = None

    @classmethod
    def _from_csr(
        cls,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph directly from canonical CSR arrays.

        Trusted-but-verified fast path for wire decoders: the arrays are
        checked *vectorized* — no per-edge Python loop — to be exactly
        the canonical CSR ``__init__`` would derive (monotone 0-based
        offsets, per-row strictly increasing neighbors, no self-loops,
        symmetric adjacency), then adopted as-is.  Anything else raises
        ``ValueError``.  The arrays are copied, so callers may hand in
        views over transient buffers.

        The result is indistinguishable from ``Graph(n, edges, labels)``:
        same array contents, dtypes, equality, and hash.
        """
        n = int(num_vertices)
        if n < 0:
            raise ValueError(f"num_vertices must be >= 0, got {n}")
        indptr = np.array(indptr, dtype=np.int64, copy=True)
        indices = np.array(indices, dtype=np.int64, copy=True)
        if (
            indptr.shape != (n + 1,)
            or (indptr.size and indptr[0] != 0)
            or np.any(np.diff(indptr) < 0)
            or int(indptr[-1] if indptr.size else 0) != indices.size
        ):
            raise ValueError("indptr is not a monotone 0-based offset array")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise ValueError(f"neighbor id out of range for n={n}")
            degrees = np.diff(indptr)
            src = np.repeat(np.arange(n, dtype=np.int64), degrees)
            if np.any(src == indices):
                raise ValueError("adjacency is not canonical CSR (self-loop)")
            # Strictly increasing within each row <=> sorted, duplicate-free.
            step = np.diff(indices)
            same_row = np.ones(indices.size - 1, dtype=bool)
            starts = indptr[1:-1]
            starts = starts[(starts > 0) & (starts < indices.size)]
            same_row[starts - 1] = False
            if np.any(step[same_row] <= 0):
                raise ValueError(
                    "adjacency is not canonical CSR (rows not sorted unique)"
                )
            # Symmetry: the directed pair set must be closed under swap.
            lo = src < indices
            forward = src[lo] * n + indices[lo]
            backward = indices[~lo] * n + src[~lo]
            if forward.size != backward.size or not np.array_equal(
                forward, np.sort(backward)
            ):
                raise ValueError("adjacency is not canonical CSR (asymmetric)")
            # Rows are sorted by (src, dst), so `forward` is already the
            # lexicographically sorted u < v edge list.
            edges = np.column_stack([src[lo], indices[lo]])
        else:
            edges = np.empty((0, 2), dtype=np.int64)

        if labels is None:
            labels_arr = np.zeros(n, dtype=np.int64)
        else:
            labels_arr = np.array(labels, dtype=np.int64, copy=True)
            if labels_arr.shape != (n,):
                raise ValueError(
                    f"labels must have length {n}, got {labels_arr.shape}"
                )
            if labels_arr.size and labels_arr.min() < 0:
                raise ValueError("labels must be non-negative integers")

        return cls._adopt(n, indptr, indices, labels_arr, edges)

    @classmethod
    def _adopt(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray,
        edges: np.ndarray,
    ) -> "Graph":
        """Adopt pre-verified canonical arrays without validation.

        Internal escape hatch for callers that have already proven —
        vectorized, possibly across a whole batch at once — that the
        arrays are exactly what ``__init__`` would derive (see
        ``_from_csr`` and the serve codec's batch decoder).  The arrays
        are adopted as-is and frozen, NOT copied: the caller must hand
        over ownership.
        """
        graph = cls.__new__(cls)
        graph.n = n
        graph._indptr = indptr
        graph._indices = indices
        graph._labels = labels
        graph._edges = edges
        for arr in (indptr, indices, labels, edges):
            arr.flags.writeable = False
        graph._hash = None
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return int(self._edges.shape[0])

    @property
    def labels(self) -> np.ndarray:
        """Read-only ``(n,)`` array of vertex labels."""
        return self._labels

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(|E|, 2)`` array of edges with ``u < v``."""
        return self._edges

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only neighbor array of vertex ``v``."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency as ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of
        ``v`` — the flat layout the vectorized traversal and WL paths
        gather from without per-vertex Python calls.
        """
        return self._indptr, self._indices

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """``(n,)`` degree sequence."""
        return np.diff(self._indptr)

    def label(self, v: int) -> int:
        """Label of vertex ``v``."""
        return int(self._labels[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``uv`` exists."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def vertices(self) -> range:
        """Iterator over vertex ids ``0 .. n-1``."""
        return range(self.n)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges}, labels={len(set(self._labels.tolist()))})"

    # ------------------------------------------------------------------
    # Structural equality (same vertex ids, edges and labels — NOT
    # isomorphism; see repro.graph.canonical for invariant hashing).
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._edges, other._edges)
            and np.array_equal(self._labels, other._labels)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.n, self._edges.tobytes(), self._labels.tobytes())
            )
        return self._hash

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def adjacency_matrix(self, dtype: type = np.float64) -> np.ndarray:
        """Dense ``(n, n)`` symmetric adjacency matrix."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        if self._edges.size:
            a[self._edges[:, 0], self._edges[:, 1]] = 1
            a[self._edges[:, 1], self._edges[:, 0]] = 1
        return a

    def relabel_vertices(self, permutation: np.ndarray | list[int]) -> "Graph":
        """Return an isomorphic copy with vertex ``i`` renamed ``permutation[i]``.

        ``permutation`` must be a permutation of ``0 .. n-1``.  Vertex labels
        travel with their vertices, so the result is isomorphic to ``self``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError("permutation must be a permutation of 0..n-1")
        new_labels = np.empty(self.n, dtype=np.int64)
        new_labels[perm] = self._labels
        new_edges = [(int(perm[u]), int(perm[v])) for u, v in self._edges]
        return Graph(self.n, new_edges, new_labels)

    def with_labels(self, labels: Iterable[int]) -> "Graph":
        """Return a copy of this graph with replaced vertex labels."""
        return Graph(self.n, [tuple(e) for e in self._edges], labels)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by ``vertices`` (renumbered ``0 .. k-1``).

        The vertex order given determines the new ids; labels follow.
        """
        vs = [int(v) for v in vertices]
        if len(set(vs)) != len(vs):
            raise ValueError("vertices must be distinct")
        index = {v: i for i, v in enumerate(vs)}
        sub_edges = []
        for v in vs:
            for u in self.neighbors(v):
                if int(u) in index and v < u:
                    sub_edges.append((index[v], index[int(u)]))
        return Graph(len(vs), sub_edges, [self._labels[v] for v in vs])

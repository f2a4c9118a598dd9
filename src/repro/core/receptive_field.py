"""Receptive-field construction (Section 4.1, step 2; Algorithm 1 l.15-19).

For each vertex a field of exactly ``r`` vertex slots is built by BFS on
the original graph: take the highest-centrality one-hop neighbors; if
fewer than ``r - 1`` exist, continue with two-hop neighbors, and so on.
Slots that cannot be filled (small components / small graphs) hold the
dummy marker ``-1``, which the pipeline maps to zero feature rows.

The paper notes the field vertices "are also sorted in descending order
according to their eigenvector centrality values" — accordingly the final
field (center included) is sorted by score, with the same tie-breaking as
the global vertex sequence.

:func:`all_receptive_fields` is fully vectorized: one batched BFS gives
the hop-distance matrix, and a single lexsort over (hop, global
tie-break rank) replaces the per-vertex Python BFS + ``sorted`` calls.
Selecting the first ``r - 1`` non-center vertices in (hop, rank) order is
exactly the reference's layer-by-layer expansion with in-layer top-score
overflow; the per-vertex path (:func:`receptive_field`, stacked by the
oracle in ``tests/oracles/core.py``) pins this bitwise in
``tests/equivalence``.
"""

from __future__ import annotations

import numpy as np

from repro.core.alignment import UnionOrder, union_vertex_order
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances_batch, bfs_layers
from repro.utils.validation import check_positive

__all__ = [
    "receptive_field",
    "all_receptive_fields",
    "all_receptive_fields_many",
    "DUMMY",
]

#: Marker for unfilled receptive-field slots.
DUMMY = -1


def receptive_field(
    g: Graph, v: int, r: int, scores: np.ndarray
) -> np.ndarray:
    """Field of ``r`` vertex ids (or DUMMY) for center vertex ``v``.

    Selection: expand BFS hop by hop; within the hop that overflows the
    budget, keep the top-score vertices.  The selected set (center
    included) is then sorted by descending score.

    This per-vertex implementation is the reference oracle for the
    vectorized :func:`all_receptive_fields`.
    """
    check_positive("r", r)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    selected: list[int] = []
    degrees = g.degrees()

    def sort_key(u: int) -> tuple:
        return (-scores[u], -degrees[u], g.labels[u], u)

    layers = bfs_layers(g, v)
    next(layers)  # skip layer 0 = [v]; the center is always included.
    budget = r - 1
    for layer in layers:
        if budget <= 0:
            break
        ranked = sorted(layer, key=sort_key)
        take = ranked[:budget]
        selected.extend(take)
        budget -= len(take)

    field = sorted([v] + selected, key=sort_key)
    out = np.full(r, DUMMY, dtype=np.int64)
    out[: len(field)] = field
    return out


def all_receptive_fields(g: Graph, r: int, scores: np.ndarray) -> np.ndarray:
    """``(n, r)`` receptive-field table for every vertex of ``g``.

    Vectorized: hop distances for all centers come from one batched BFS,
    then a single flat lexsort ranks every (center, candidate) pair by
    ``(hop, -score, -degree, label, id)``.  The first ``r`` entries per
    row are the center (hop 0) plus the ``r - 1`` selected vertices; a
    second rank-only sort produces the final score-descending field.
    """
    check_positive("r", r)
    n = g.n
    if n == 0:
        return np.empty((0, r), dtype=np.int64)
    scores = np.asarray(scores)
    degrees = g.degrees()
    dist = bfs_distances_batch(g)

    # Global tie-break order: (-score, -degree, label, id) ascending ==
    # the reference's per-vertex sort_key.  rank[u] is u's position;
    # order_global inverts it (order_global[rank[u]] == u).
    order_global = np.lexsort((np.arange(n), g.labels, -degrees, -scores))
    rank = np.empty(n, dtype=np.int64)
    rank[order_global] = np.arange(n)

    unreach = np.int64(n + 1)  # real hops are <= n - 1
    dsel = np.where(dist < 0, unreach, dist)
    rows = np.repeat(np.arange(n), n)
    flat_order = np.lexsort((np.tile(rank, n), dsel.ravel(), rows))
    cols_sorted = (flat_order % n).reshape(n, n)

    # Per row: column 0 is the center (unique hop-0 entry); columns
    # 1..r-1 are the best reachable candidates in (hop, rank) order.
    k = min(r, n)
    sel = cols_sorted[:, :k]
    sel_dist = np.take_along_axis(dsel, sel, axis=1)
    valid = sel_dist < unreach

    # Re-sort the field members by rank alone (descending score order).
    member_rank = np.where(valid, rank[sel], n)  # n acts as +inf
    member_rank = np.sort(member_rank, axis=1)
    out = np.full((n, r), DUMMY, dtype=np.int64)
    filled = member_rank < n
    out[:, :k][filled] = order_global[member_rank[filled]]
    return out


def all_receptive_fields_many(
    graphs: list[Graph],
    r: int,
    scores_list: list[np.ndarray],
    union: UnionOrder | None = None,
) -> list[np.ndarray]:
    """Receptive-field tables for a whole dataset in one flat pass.

    All ``(center, candidate)`` pairs of every graph are ranked by a
    single lexsort over ``(pair row, hop, tie-break rank)``; per-row
    first-``k`` selection, rank re-sorting, and the final id mapping all
    run on flat arrays over the disjoint union, so no per-graph
    ``(n, n)`` intermediate is rebuilt in Python.  BFS hop distances stay
    per graph (each graph's batched BFS is already one dense matmul loop;
    a block-diagonal union would do strictly more work).

    Bitwise-equal to calling :func:`all_receptive_fields` graph by graph
    (``tests/equivalence/test_pipeline_equiv.py``): the pair segments of
    one graph see exactly the keys its own lexsort would, and lexsort is
    stable.  Pass ``union`` to reuse the ordering the alignment stage
    already computed.
    """
    check_positive("r", r)
    n_graphs = len(graphs)
    if n_graphs == 0:
        return []
    if union is None:
        union = union_vertex_order(graphs, scores_list)
    sizes, starts = union.sizes, union.starts
    total = int(sizes.sum())
    if total == 0:
        return [np.empty((0, r), dtype=np.int64) for _ in graphs]
    order, rank = union.order, union.rank
    gid = np.repeat(np.arange(n_graphs), sizes)

    # Flat (center, candidate) hop distances; unreachable pairs get the
    # per-graph sentinel n_g + 1 (real hops are <= n_g - 1).
    dsel_parts = []
    rank_parts = []
    for gi, g in enumerate(graphs):
        if g.n == 0:
            continue
        dist = bfs_distances_batch(g)
        dsel_parts.append(np.where(dist < 0, g.n + 1, dist).ravel())
        lo = int(starts[gi])
        rank_parts.append(np.tile(rank[lo : lo + g.n], g.n))
    dsel_flat = np.concatenate(dsel_parts)
    rank_tiled = np.concatenate(rank_parts)
    pair_rows = np.repeat(np.arange(total), np.repeat(sizes, sizes))
    flat_order = np.lexsort((rank_tiled, dsel_flat, pair_rows))

    # First min(r, n_g) pairs of every row segment, via flat positional
    # arithmetic (rows of graph g are contiguous runs of length n_g).
    seg_len = sizes[gid]  # pairs per row
    pstart = np.zeros(total, dtype=np.int64)
    pstart[1:] = np.cumsum(seg_len)[:-1]
    k_rows = np.minimum(r, seg_len)
    total_sel = int(k_rows.sum())
    sel_start = np.zeros(total, dtype=np.int64)
    sel_start[1:] = np.cumsum(k_rows)[:-1]
    within = np.arange(total_sel) - np.repeat(sel_start, k_rows)
    sel_pair = flat_order[np.repeat(pstart, k_rows) + within]

    pair_starts = np.zeros(n_graphs, dtype=np.int64)
    pair_starts[1:] = np.cumsum(sizes * sizes)[:-1]
    g_sel = np.repeat(gid, k_rows)
    cand_local = (sel_pair - pair_starts[g_sel]) % sizes[g_sel]
    valid = dsel_flat[sel_pair] < sizes[g_sel] + 1
    member_rank = np.where(
        valid, rank[starts[g_sel] + cand_local], sizes[g_sel]
    )

    # (total, r) rank matrix with the per-row sentinel n_g (acts as +inf
    # for that graph); sorting ascending puts the field in descending
    # score order, exactly as the per-graph path does.
    ranks = np.repeat(sizes[gid], r).reshape(total, r)
    ranks[np.repeat(np.arange(total), k_rows), within] = member_rank
    ranks.sort(axis=1)
    filled_rows, filled_cols = np.nonzero(ranks < sizes[gid][:, None])
    out = np.full((total, r), DUMMY, dtype=np.int64)
    row_starts = starts[gid]
    out[filled_rows, filled_cols] = (
        order[row_starts[filled_rows] + ranks[filled_rows, filled_cols]]
        - row_starts[filled_rows]
    )
    return [
        out[int(starts[gi]) : int(starts[gi]) + int(sizes[gi])]
        for gi in range(n_graphs)
    ]

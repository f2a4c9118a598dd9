"""Radix-remapped WL refinement vs the per-vertex blake2b reference oracle.

The vectorized path now produces content-stable splitmix64 codes instead
of blake2b hex digests, so the contract against the preserved
``_reference_wl_stable_colors`` oracle is **partition equality**, not
value equality: at every iteration the two colorings must induce the
same grouping of vertices — within a graph AND jointly across graphs
(cross-graph color identity is what aligns subtree patterns in the
vocabulary).  Everything downstream that consumes only the partition
(feature-map counts, explicit WL grams, the WL-OA kernel) is therefore
bitwise-unchanged; the raw color *values* changed once, intentionally,
in the PR that introduced the remap (goldens were regenerated under
``REPRO_GOLDEN_BREAK_OK=1``).

Properties that remain exact (not just partition-level):

* iteration 0 is the raw integer labels,
* codes are pure functions of the rooted subtree signature — batching,
  batch composition, and the batch's maximum degree cannot change them.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import WLVertexFeatures
from repro.features.vertex_maps import wl_stable_colors, wl_stable_colors_many
from repro.graph import Graph

from tests.conftest import random_graphs
from tests.equivalence.conftest import (
    disconnected_graphs,
    graph_batches,
    shuffled_edge_graphs,
)
from tests.oracles.features import _reference_wl_stable_colors, extract_counters


def _same_partition(a: list, b: list) -> bool:
    """True iff colorings ``a`` and ``b`` group positions identically.

    Checked as a bijection between color values: equal positions in one
    coloring must be equal in the other, in both directions.
    """
    assert len(a) == len(b)
    fwd: dict = {}
    bwd: dict = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y:
            return False
        if bwd.setdefault(y, x) != x:
            return False
    return True


def assert_partition_equal(got: list[list[list[int]]], graphs, h: int) -> None:
    """Joint (cross-graph) partition equality vs the blake2b oracle."""
    ref = [_reference_wl_stable_colors(g, h) for g in graphs]
    for it in range(h + 1):
        joint_got = [c for table in got for c in table[it]]
        joint_ref = [c for table in ref for c in table[it]]
        assert _same_partition(joint_got, joint_ref), f"iteration {it}"


@st.composite
def label_tied_graphs(draw, max_nodes: int = 8):
    """Graphs whose labels are all identical — WL must refine on
    structure alone, the worst case for signature collisions."""
    g = draw(random_graphs(min_nodes=1, max_nodes=max_nodes))
    return Graph(g.n, [tuple(e) for e in g.edges], [0] * g.n)


class TestStableColors:
    @settings(max_examples=60)
    @given(random_graphs(max_nodes=10), st.integers(0, 4))
    def test_partition_matches_reference(self, g, h):
        assert_partition_equal([wl_stable_colors(g, h)], [g], h)

    @given(disconnected_graphs(), st.integers(0, 3))
    def test_disconnected_partition_matches_reference(self, g, h):
        assert_partition_equal([wl_stable_colors(g, h)], [g], h)

    @given(shuffled_edge_graphs(), st.integers(0, 3))
    def test_edge_order_irrelevant(self, g, h):
        assert_partition_equal([wl_stable_colors(g, h)], [g], h)

    @given(label_tied_graphs(), st.integers(0, 4))
    def test_label_tied_partition_matches_reference(self, g, h):
        assert_partition_equal([wl_stable_colors(g, h)], [g], h)

    @given(random_graphs(max_nodes=8))
    def test_iteration_zero_is_raw_labels(self, g):
        assert wl_stable_colors(g, 0) == [[int(l) for l in g.labels]]

    @given(random_graphs(max_nodes=8), st.integers(0, 3))
    def test_colors_are_plain_python_ints(self, g, h):
        for iteration in wl_stable_colors(g, h):
            assert all(type(c) is int for c in iteration)

    def test_empty_graph(self):
        g = Graph(0, [])
        assert wl_stable_colors(g, 2) == [[], [], []]


class TestBatched:
    @settings(max_examples=40)
    @given(graph_batches(), st.integers(0, 3))
    def test_joint_partition_matches_reference(self, graphs, h):
        """The partition must agree *jointly* across the whole batch —
        per-graph agreement alone would not guarantee that identical
        subtrees in different graphs share a color."""
        assert_partition_equal(wl_stable_colors_many(graphs, h), graphs, h)

    @settings(max_examples=40)
    @given(graph_batches(min_graphs=2, max_graphs=4), st.integers(0, 2))
    def test_batching_cannot_couple_graphs(self, graphs, h):
        """Codes are content-stable: identical whether batched or alone."""
        batched = wl_stable_colors_many(graphs, h)
        solo = [wl_stable_colors_many([g], h)[0] for g in graphs]
        assert batched == solo

    def test_identical_subtrees_share_colors_across_graphs(self):
        path = Graph(3, [(0, 1), (1, 2)], [0, 1, 0])
        clone = Graph(3, [(1, 2), (0, 1)], [0, 1, 0])
        a, b = wl_stable_colors_many([path, clone], 2)
        assert a == b

    def test_codes_independent_of_batch_max_degree(self):
        """The signature sponge must not absorb padding columns: a
        path's codes cannot change because a high-degree star joined
        the batch and widened the sorted-neighbor layout."""
        path = Graph(3, [(0, 1), (1, 2)], [0, 0, 0])
        star = Graph(7, [(0, i) for i in range(1, 7)], [0] * 7)
        alone = wl_stable_colors_many([path], 3)[0]
        with_star = wl_stable_colors_many([star, path], 3)[1]
        assert alone == with_star


class TestExtractor:
    @settings(max_examples=40)
    @given(graph_batches(), st.integers(0, 3))
    def test_extract_matches_color_table_construction(self, graphs, h):
        """Extractor counters are exactly the ('wl', it, color) singles
        of the batched color tables (values match the new code scheme;
        the partition itself is pinned against the oracle above)."""
        got = extract_counters(WLVertexFeatures(h=h), graphs)
        tables = wl_stable_colors_many(graphs, h)
        expected = []
        for g, colorings in zip(graphs, tables):
            per_vertex = []
            for v in range(g.n):
                counter: Counter = Counter()
                for it in range(h + 1):
                    counter[("wl", it, colorings[it][v])] += 1
                per_vertex.append(counter)
            expected.append(per_vertex)
        assert got == expected

    @given(random_graphs(max_nodes=8))
    def test_every_vertex_counts_once_per_iteration(self, g):
        h = 2
        for counter in extract_counters(WLVertexFeatures(h=h), [g])[0]:
            assert sum(counter.values()) == h + 1
            assert set(counter.values()) == {1}

"""Unit tests for EnumerateCsg / EnumerateCsgRec / EnumerateCmp.

These check the paper's correctness lemmas directly:
* every connected set emitted exactly once (Lemmas 8, 10),
* subsets before supersets (Lemma 12),
* csg-cmp-pairs each in exactly one orientation (Theorem 2),
* the worked examples from paper §3.2/§3.3 (Figures 6-7).
"""

from __future__ import annotations

import random

import pytest

from repro import bitset
from repro.errors import GraphError
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
)
from repro.graph.querygraph import QueryGraph
from repro.graph.subgraphs import (
    enumerate_cmp,
    enumerate_csg,
    enumerate_csg_cmp_lists,
    enumerate_csg_cmp_pairs,
)


def paper_figure6_graph() -> QueryGraph:
    """The 5-node example of paper Figure 6.

    Edges reconstructed from the Figure 7 call table: R0 joined to
    R1, R2, R3; R4 joined to R1, R2, R3; plus R2 - R3 (the table shows
    N({2}) \\ {0,1,2} = {3,4}). Reproduces the enumeration table of
    Figure 7 and the EnumerateCmp example with N({R1}) = {R0, R4}.
    """
    return QueryGraph(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )


def bfs(graph: QueryGraph) -> QueryGraph:
    """Renumber to satisfy the enumerators' precondition (cycles etc.)."""
    if graph.is_bfs_numbered():
        return graph
    renumbered, _order = graph.bfs_renumbered()
    return renumbered


def brute_force_connected_sets(graph: QueryGraph) -> set[int]:
    return {
        mask
        for mask in range(1, graph.all_relations + 1)
        if graph.is_connected_set(mask)
    }


class TestEnumerateCsg:
    @pytest.mark.parametrize(
        "graph",
        [
            chain_graph(1),
            chain_graph(2),
            chain_graph(6),
            bfs(cycle_graph(5)),
            star_graph(6),
            clique_graph(5),
            paper_figure6_graph(),
        ],
        ids=["chain1", "chain2", "chain6", "cycle5", "star6", "clique5", "fig6"],
    )
    def test_exactly_all_connected_sets_once(self, graph):
        emitted = list(enumerate_csg(graph))
        assert len(emitted) == len(set(emitted)), "duplicates emitted"
        assert set(emitted) == brute_force_connected_sets(graph)

    def test_subsets_emitted_before_supersets(self):
        graph = paper_figure6_graph()
        position = {mask: i for i, mask in enumerate(enumerate_csg(graph))}
        for mask, index in position.items():
            for other, other_index in position.items():
                if other != mask and bitset.is_subset(other, mask):
                    assert other_index < index, (
                        f"{bitset.format_bits(other)} after "
                        f"{bitset.format_bits(mask)}"
                    )

    def test_start_nodes_descending(self):
        # The first emission is {v_{n-1}}, the last block starts at {v_0}.
        graph = chain_graph(4)
        emitted = list(enumerate_csg(graph))
        assert emitted[0] == bitset.bit(3)
        assert bitset.bit(0) in emitted

    def test_figure7_first_emissions(self):
        """Paper Figure 7: per start node, the first emitted supersets."""
        graph = paper_figure6_graph()
        emitted = list(enumerate_csg(graph))
        want_prefix = [
            {4},            # start node v4
            {3},            # start node v3
            {3, 4},
            {2},            # start node v2: N({2}) \ B_2 = {3, 4}
            {2, 3},
            {2, 4},
            {2, 3, 4},
            {1},            # start node v1: N({1}) \ B_1 = {4}
            {1, 4},
        ]
        got_prefix = [
            set(bitset.iter_bits(mask)) for mask in emitted[: len(want_prefix)]
        ]
        assert got_prefix == want_prefix

    def test_non_bfs_numbered_rejected(self):
        star_off_center = QueryGraph(4, [(2, 0), (2, 1), (2, 3)])
        with pytest.raises(GraphError):
            list(enumerate_csg(star_off_center))

    def test_trust_numbering_skips_check(self):
        star_off_center = QueryGraph(4, [(2, 0), (2, 1), (2, 3)])
        # With the check disabled the generator runs; the *set* of
        # emissions is then not guaranteed — only that it runs.
        emitted = list(enumerate_csg(star_off_center, trust_numbering=True))
        assert emitted


class TestEnumerateCmp:
    def test_paper_example_s1_r1(self):
        """Paper §3.3: S1 = {R1} on the Figure 6 graph."""
        graph = paper_figure6_graph()
        complements = list(enumerate_cmp(graph, bitset.bit(1)))
        want = [
            {4},
            {2, 4},
            {3, 4},
            {2, 3, 4},
        ]
        got = [set(bitset.iter_bits(mask)) for mask in complements]
        assert got == want

    def test_empty_s1_rejected(self):
        with pytest.raises(GraphError):
            list(enumerate_cmp(chain_graph(3), 0))

    def test_complements_are_valid(self):
        graph = bfs(cycle_graph(6))
        for subset in enumerate_csg(graph):
            for complement in enumerate_cmp(graph, subset):
                assert subset & complement == 0
                assert graph.is_connected_set(complement)
                assert graph.are_connected(subset, complement)

    def test_ordering_restriction(self):
        """S2 contains only labels above min(S1) — duplicate avoidance."""
        graph = clique_graph(5)
        for subset in enumerate_csg(graph):
            low = bitset.lowest_bit_index(subset)
            for complement in enumerate_cmp(graph, subset):
                assert bitset.lowest_bit_index(complement) > low


class TestCsgCmpPairs:
    @pytest.mark.parametrize(
        "graph",
        [
            chain_graph(2),
            chain_graph(7),
            bfs(cycle_graph(6)),
            star_graph(6),
            clique_graph(5),
            paper_figure6_graph(),
        ],
        ids=["chain2", "chain7", "cycle6", "star6", "clique5", "fig6"],
    )
    def test_each_unordered_pair_exactly_once(self, graph):
        seen: set[frozenset[int]] = set()
        for left, right in enumerate_csg_cmp_pairs(graph):
            key = frozenset((left, right))
            assert key not in seen, "pair emitted twice (or in both orders)"
            seen.add(key)
        # Ground truth: brute-force pair count (unordered).
        expected = set()
        for whole in range(1, graph.all_relations + 1):
            if not graph.is_connected_set(whole):
                continue
            for left in bitset.iter_subsets(whole):
                right = whole ^ left
                if (
                    graph.is_connected_set(left)
                    and graph.is_connected_set(right)
                    and graph.are_connected(left, right)
                ):
                    expected.add(frozenset((left, right)))
        assert seen == expected

    def test_dp_valid_order(self):
        """When a pair is emitted, its components' sub-pairs came first.

        Sufficient check for the DP precondition: every emitted set of
        size > 1 must already have appeared as the union of a
        previously emitted pair.
        """
        for graph in (chain_graph(7), bfs(cycle_graph(6)), clique_graph(5),
                      star_graph(6), paper_figure6_graph()):
            solvable: set[int] = set()
            for index in range(graph.n_relations):
                solvable.add(bitset.bit(index))
            for left, right in enumerate_csg_cmp_pairs(graph):
                assert left in solvable, "left side not yet constructible"
                assert right in solvable, "right side not yet constructible"
                solvable.add(left | right)
            assert graph.all_relations in solvable

    def test_random_graphs_pair_sets(self, rng):
        for _ in range(15):
            n = rng.randint(2, 8)
            graph = random_connected_graph(n, rng, rng.random() * 0.7)
            if not graph.is_bfs_numbered():
                graph, _ = graph.bfs_renumbered()
            pairs = list(enumerate_csg_cmp_pairs(graph))
            keys = {frozenset((a, b)) for a, b in pairs}
            assert len(keys) == len(pairs)


class TestBoundedEnumeration:
    """max_size / max_union_size prune without changing semantics."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 7])
    def test_csg_cap_equals_filtered_full_enumeration(self, cap):
        graph = paper_figure6_graph()
        full = [
            mask for mask in enumerate_csg(graph) if bitset.popcount(mask) <= cap
        ]
        capped = list(enumerate_csg(graph, max_size=cap))
        assert capped == full, "cap must preserve order and content"

    @pytest.mark.parametrize("cap", [2, 3, 4, 6])
    def test_pair_cap_equals_filtered_full_stream(self, cap, rng):
        for _ in range(8):
            graph = random_connected_graph(rng.randint(2, 7), rng, rng.random())
            if not graph.is_bfs_numbered():
                graph, _ = graph.bfs_renumbered()
            full = [
                pair
                for pair in enumerate_csg_cmp_pairs(graph)
                if bitset.popcount(pair[0]) + bitset.popcount(pair[1]) <= cap
            ]
            capped = list(enumerate_csg_cmp_pairs(graph, max_union_size=cap))
            assert capped == full

    @pytest.mark.parametrize("cap", [None, 2, 3, 5])
    def test_first_node_slice_equals_filtered_full_stream(self, cap, rng):
        """The slice is the pairs whose union holds node 0, in order."""
        for _ in range(8):
            graph = bfs(
                random_connected_graph(rng.randint(2, 8), rng, rng.random())
            )
            full = [
                (left, rights)
                for left, rights in enumerate_csg_cmp_lists(
                    graph, max_union_size=cap
                )
                if left & 1
            ]
            sliced = list(
                enumerate_csg_cmp_lists(
                    graph, max_union_size=cap, first_node_only=True
                )
            )
            assert sliced == full
            assert all(not right & 1 for _left, rights in sliced for right in rights)

    def test_cap_zero_yields_nothing(self):
        graph = chain_graph(4)
        assert list(enumerate_csg(graph, max_size=0)) == []

    def test_cap_prunes_rather_than_filters(self):
        """The capped stream must not visit oversized sets at all.

        Observable via work: a clique's full stream is ~3^n/2 pairs;
        with cap 2 only the edges remain, and the enumeration must be
        proportional to that, which we approximate by checking the
        emitted csg sets of size <= 1 feed it.
        """
        graph = clique_graph(10)
        pairs = list(enumerate_csg_cmp_pairs(graph, max_union_size=2))
        assert len(pairs) == 45  # one per clique edge
        assert all(
            bitset.popcount(a) == 1 and bitset.popcount(b) == 1 for a, b in pairs
        )

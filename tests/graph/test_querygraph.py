"""Unit tests for repro.graph.querygraph."""

from __future__ import annotations

import pickle

import pytest

from repro import bitset
from repro.errors import GraphError, UnknownRelationError
from repro.graph.generators import chain_graph
from repro.graph.querygraph import JoinEdge, QueryGraph, remap_mask


def path4() -> QueryGraph:
    """R0 - R1 - R2 - R3."""
    return QueryGraph(4, [(0, 1), (1, 2), (2, 3)])


class TestJoinEdge:
    def test_normalized_orders_endpoints(self):
        edge = JoinEdge(3, 1, 0.5)
        normalized = edge.normalized()
        assert normalized.left == 1 and normalized.right == 3
        assert normalized.selectivity == 0.5

    def test_endpoints_sorted(self):
        assert JoinEdge(3, 1).endpoints == (1, 3)

    def test_mask(self):
        assert JoinEdge(0, 2).mask() == 0b101

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            JoinEdge(1, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(GraphError):
            JoinEdge(-1, 0)

    @pytest.mark.parametrize("selectivity", [0.0, -0.5, 1.5])
    def test_bad_selectivity_rejected(self, selectivity):
        with pytest.raises(GraphError):
            JoinEdge(0, 1, selectivity)

    def test_selectivity_one_allowed(self):
        assert JoinEdge(0, 1, 1.0).selectivity == 1.0


class TestConstruction:
    def test_zero_relations_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph(0)

    def test_default_names(self):
        graph = QueryGraph(3)
        assert graph.names == ("R0", "R1", "R2")

    def test_custom_names(self):
        graph = QueryGraph(2, [(0, 1)], names=["orders", "customer"])
        assert graph.name_of(0) == "orders"
        assert graph.index_of("customer") == 1

    def test_wrong_name_count_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph(2, names=["only_one"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph(2, names=["same", "same"])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(UnknownRelationError):
            QueryGraph(2, [(0, 5)])

    def test_tuples_accepted_as_edges(self):
        graph = QueryGraph(2, [(0, 1, 0.25)])
        assert graph.edges[0].selectivity == 0.25

    def test_parallel_edges_merge_selectivities(self):
        graph = QueryGraph(2, [(0, 1, 0.5), (1, 0, 0.5)])
        assert len(graph.edges) == 1
        assert graph.edges[0].selectivity == pytest.approx(0.25)

    def test_parallel_edges_merge_predicates(self):
        graph = QueryGraph(
            2,
            [JoinEdge(0, 1, 0.5, "a = b"), JoinEdge(0, 1, 0.5, "c = d")],
        )
        assert graph.edges[0].predicate == "a = b AND c = d"

    def test_unknown_name_lookup(self):
        graph = QueryGraph(2, [(0, 1)])
        with pytest.raises(UnknownRelationError):
            graph.index_of("nope")
        with pytest.raises(UnknownRelationError):
            graph.name_of(9)

    def test_equality_and_hash(self):
        assert path4() == path4()
        assert hash(path4()) == hash(path4())
        assert path4() != QueryGraph(4, [(0, 1), (1, 2)])
        # Built separately, from different edge orders and forms.
        first = QueryGraph(3, [(0, 1, 0.5), (2, 1, 0.25)], names=["a", "b", "c"])
        second = QueryGraph(
            3, [JoinEdge(1, 2, 0.25), JoinEdge(1, 0, 0.5)], names=("a", "b", "c")
        )
        assert first == second and first is not second
        assert hash(first) == hash(second)
        # The hash is cached, and stays the same on every call.
        assert len({hash(first) for _ in range(3)}) == 1

    def test_pickle_round_trip_carries_no_cached_state(self):
        graph = QueryGraph(3, [(0, 1, 0.5), (1, 2, 0.25, "b.x = c.x")])
        before = pickle.dumps(graph)
        hash(graph)
        assert graph.is_connected
        # String hashes are salted per process: caching the hash must
        # not change what travels to a worker process.
        assert pickle.dumps(graph) == before
        restored = pickle.loads(before)
        assert restored == graph and hash(restored) == hash(graph)
        assert restored.neighbor_masks == graph.neighbor_masks

    def test_repr(self):
        assert "4" in repr(path4())


class TestNeighborhoods:
    def test_single_node_neighbors(self):
        graph = path4()
        assert graph.neighbor_mask(0) == 0b0010
        assert graph.neighbor_mask(1) == 0b0101
        assert graph.neighbor_masks[2] == 0b1010

    def test_degree(self):
        graph = path4()
        assert graph.degree(0) == 1
        assert graph.degree(1) == 2

    def test_set_neighborhood_excludes_set(self):
        graph = path4()
        assert graph.neighborhood(0b0110) == 0b1001

    def test_neighborhood_of_everything_is_empty(self):
        graph = path4()
        assert graph.neighborhood(graph.all_relations) == 0

    def test_neighborhood_of_empty_set(self):
        assert path4().neighborhood(0) == 0

    def test_edges_of(self):
        graph = path4()
        assert len(graph.edges_of(1)) == 2
        assert len(graph.edges_of(0)) == 1


class TestConnectedness:
    def test_empty_set_not_connected(self):
        assert not path4().is_connected_set(0)

    def test_singletons_connected(self):
        graph = path4()
        for index in range(4):
            assert graph.is_connected_set(bitset.bit(index))

    def test_contiguous_runs_connected(self):
        graph = path4()
        assert graph.is_connected_set(0b0011)
        assert graph.is_connected_set(0b1110)
        assert graph.is_connected_set(0b1111)

    def test_gaps_not_connected(self):
        graph = path4()
        assert not graph.is_connected_set(0b0101)
        assert not graph.is_connected_set(0b1001)

    def test_are_connected(self):
        graph = path4()
        assert graph.are_connected(0b0001, 0b0010)
        assert not graph.are_connected(0b0001, 0b0100)
        assert graph.are_connected(0b0011, 0b0100)

    def test_are_connected_empty_side(self):
        graph = path4()
        assert not graph.are_connected(0, 0b1)
        assert not graph.are_connected(0b1, 0)

    def test_whole_graph_connected(self):
        assert path4().is_connected
        assert not QueryGraph(3, [(0, 1)]).is_connected

    def test_single_relation_graph_connected(self):
        assert QueryGraph(1).is_connected

    def test_connectivity_reads_each_node_once(self, monkeypatch):
        graph = chain_graph(215)
        read = [0]
        neighborhood = QueryGraph.neighborhood

        def counted(self, mask):
            read[0] += mask.bit_count()
            return neighborhood(self, mask)

        monkeypatch.setattr(QueryGraph, "neighborhood", counted)
        assert graph.is_connected
        # Each round grows from its frontier alone. Growing from every
        # node reached so far read 1 + 2 + ... + 215 = 23,220 nodes.
        assert read[0] == 215
        assert not QueryGraph(3, [(0, 1)]).is_connected_set(0b111)


class TestCrossingEdges:
    def test_crossing_edges_found_once(self):
        graph = QueryGraph(4, [(0, 1, 0.5), (0, 2, 0.25), (1, 2, 0.1), (2, 3, 0.2)])
        crossing = list(graph.crossing_edges(0b0011, 0b0100))
        assert {edge.endpoints for edge in crossing} == {(0, 2), (1, 2)}

    def test_crossing_selectivity_multiplies(self):
        graph = QueryGraph(3, [(0, 2, 0.5), (1, 2, 0.1)])
        assert graph.crossing_selectivity(0b011, 0b100) == pytest.approx(0.05)

    def test_crossing_selectivity_defaults_to_one(self):
        graph = path4()
        assert graph.crossing_selectivity(0b0001, 0b0100) == 1.0

    def test_internal_edges(self):
        graph = path4()
        internal = list(graph.internal_edges(0b0111))
        assert {edge.endpoints for edge in internal} == {(0, 1), (1, 2)}


class TestBfs:
    def test_bfs_order_path(self):
        assert path4().bfs_order(0) == [0, 1, 2, 3]
        assert path4().bfs_order(2) == [2, 1, 3, 0]

    def test_bfs_order_invalid_start(self):
        with pytest.raises(UnknownRelationError):
            path4().bfs_order(10)

    def test_is_bfs_numbered(self):
        assert path4().is_bfs_numbered()
        # Star with hub at index 2 is not BFS-numbered from node 0.
        star_off_center = QueryGraph(4, [(2, 0), (2, 1), (2, 3)])
        assert not star_off_center.is_bfs_numbered()

    def test_disconnected_graph_not_bfs_numbered(self):
        assert not QueryGraph(3, [(0, 1)]).is_bfs_numbered()
        assert not QueryGraph(3, [(0, 2)]).is_bfs_numbered()
        assert not QueryGraph(3).is_bfs_numbered()

    def test_bfs_renumbered_is_bfs_numbered(self):
        star_off_center = QueryGraph(4, [(2, 0), (2, 1), (2, 3)])
        renumbered, order = star_off_center.bfs_renumbered()
        assert renumbered.is_bfs_numbered()
        assert sorted(order) == [0, 1, 2, 3]

    def test_bfs_renumbered_preserves_structure(self):
        graph = QueryGraph(4, [(2, 0, 0.5), (2, 1, 0.25), (2, 3, 0.125)])
        renumbered, order = graph.bfs_renumbered()
        assert len(renumbered.edges) == len(graph.edges)
        assert {round(e.selectivity, 3) for e in renumbered.edges} == {
            0.5, 0.25, 0.125
        }
        # Names travel with the relations.
        assert renumbered.names[0] == graph.names[order[0]]

    def test_bfs_renumbered_disconnected_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph(3, [(0, 1)]).bfs_renumbered()

    def test_relabelled_roundtrip(self):
        graph = path4()
        permutation = [3, 2, 1, 0]
        relabelled = graph.relabelled(permutation)
        assert {edge.endpoints for edge in relabelled.edges} == {
            (0, 1), (1, 2), (2, 3)
        }
        assert relabelled.names == ("R3", "R2", "R1", "R0")

    def test_relabelled_requires_permutation(self):
        with pytest.raises(GraphError):
            path4().relabelled([0, 0, 1, 2])


class TestRemapMask:
    def test_identity(self):
        assert remap_mask(0b101, [0, 1, 2]) == 0b101

    def test_permutation(self):
        assert remap_mask(0b011, [2, 0, 1]) == 0b101

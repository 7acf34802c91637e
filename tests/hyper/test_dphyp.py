"""Unit tests for DPhyp: equivalence with DPccp, optimality, counters."""

from __future__ import annotations

import random

import pytest

from repro import bitset
from repro.catalog.synthetic import random_catalog
from repro.core import DPccp
from repro.errors import DisconnectedGraphError, OptimizerError
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
)
from repro.hyper import (
    DPhyp,
    ExhaustiveHyperOptimizer,
    HyperCoutModel,
    Hyperedge,
    Hypergraph,
)
from repro.hyper.exhaustive import count_hyper_ccp, plannable_sets
from repro.plans.visitors import iter_leaves


def random_hypergraph(rng: random.Random, n: int) -> Hypergraph:
    """Simple random spanning tree plus a few complex hyperedges."""
    edges = [
        Hyperedge(bitset.bit(rng.randrange(i)), bitset.bit(i), rng.uniform(0.01, 0.5))
        for i in range(1, n)
    ]
    for _ in range(rng.randint(0, 3)):
        members = [i for i in range(n) if rng.random() < 0.5]
        if len(members) < 2:
            continue
        split = rng.randint(1, len(members) - 1)
        edges.append(
            Hyperedge(
                bitset.set_of(members[:split]),
                bitset.set_of(members[split:]),
                rng.uniform(0.01, 0.9),
            )
        )
    return Hypergraph(n, edges)


class TestSimpleGraphEquivalence:
    """On simple graphs DPhyp must coincide with DPccp exactly."""

    @pytest.mark.parametrize(
        "graph",
        [chain_graph(7), cycle_graph(6), star_graph(7), clique_graph(5)],
        ids=["chain", "cycle", "star", "clique"],
    )
    def test_same_pairs_and_cost(self, graph):
        hyper = Hypergraph.from_query_graph(graph)
        hyp_result = DPhyp().optimize(hyper)
        ccp_result = DPccp().optimize(graph)
        assert (
            hyp_result.counters.ono_lohman_counter
            == ccp_result.counters.ono_lohman_counter
        )
        assert hyp_result.cost == pytest.approx(ccp_result.cost)
        assert hyp_result.table_size == ccp_result.table_size

    def test_random_simple_graphs(self, rng):
        for _ in range(10):
            n = rng.randint(2, 7)
            graph = random_connected_graph(n, rng, rng.random() * 0.6)
            catalog = random_catalog(n, rng)
            hyper = Hypergraph.from_query_graph(graph)
            hyp = DPhyp().optimize(hyper, catalog=catalog)
            ccp = DPccp().optimize(graph, catalog=catalog)
            assert hyp.cost == pytest.approx(ccp.cost)
            assert (
                hyp.counters.ono_lohman_counter
                == ccp.counters.ono_lohman_counter
            )


class TestHypergraphOptimality:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive(self, seed):
        rng = random.Random(9000 + seed)
        n = rng.randint(3, 7)
        hyper = random_hypergraph(rng, n)
        catalog = random_catalog(n, rng)
        result = DPhyp().optimize(hyper, cost_model=HyperCoutModel(hyper, catalog))
        reference = ExhaustiveHyperOptimizer().optimize(
            hyper, cost_model=HyperCoutModel(hyper, catalog)
        )
        assert result.cost == pytest.approx(reference.cost)

    @pytest.mark.parametrize("seed", range(12))
    def test_inner_counter_is_exact_pair_count(self, seed):
        rng = random.Random(9100 + seed)
        n = rng.randint(3, 7)
        hyper = random_hypergraph(rng, n)
        result = DPhyp().optimize(hyper)
        assert result.counters.ono_lohman_counter == count_hyper_ccp(hyper)
        assert result.counters.inner_counter == result.counters.ono_lohman_counter

    def test_plans_cover_all_relations_once(self, rng):
        for _ in range(8):
            n = rng.randint(3, 7)
            hyper = random_hypergraph(rng, n)
            plan = DPhyp().optimize(hyper).plan
            leaves = sorted(leaf.relation_index for leaf in iter_leaves(plan))
            assert leaves == list(range(n))


class TestHyperedgeSemantics:
    def test_hyperedge_forces_grouping(self):
        """A plan may only use the hyperedge once both sides are complete.

        Chain 0-1-2 where relation 3 attaches ONLY via ({0,1}, {3}):
        every valid tree must join {3} against a set containing both
        0 and 1.
        """
        hyper = Hypergraph(
            4,
            [
                Hyperedge(0b0001, 0b0010, 0.5),
                Hyperedge(0b0010, 0b0100, 0.5),
                Hyperedge(0b0011, 0b1000, 0.1),
            ],
        )
        result = DPhyp().optimize(hyper)
        # Find the join that brings in relation 3.
        def check(node):
            if node.is_leaf:
                return
            left, right = node.left, node.right
            if left.relations == 0b1000:
                assert bitset.is_subset(0b0011, right.relations)
            if right.relations == 0b1000:
                assert bitset.is_subset(0b0011, left.relations)
            check(left)
            check(right)

        check(result.plan)

    def test_unplannable_hypergraph_rejected(self):
        """Connected only through a hyperedge with a disconnected side."""
        hyper = Hypergraph(3, [Hyperedge(0b011, 0b100, 0.5)])
        # {0,1} has no internal edge: the single hyperedge can never fire.
        assert hyper.is_connected  # hyper-connected...
        with pytest.raises(OptimizerError):
            DPhyp().optimize(hyper)  # ...but not plannable

    def test_disconnected_rejected(self):
        hyper = Hypergraph(3, [Hyperedge(0b001, 0b010)])
        with pytest.raises(DisconnectedGraphError):
            DPhyp().optimize(hyper)

    def test_cost_model_and_catalog_rejected(self):
        """A catalog next to a model must not be dropped in silence."""
        rng = random.Random(5)
        hyper = Hypergraph.from_query_graph(chain_graph(5, rng=rng))
        model = HyperCoutModel(hyper, random_catalog(5, rng))
        with pytest.raises(OptimizerError, match="not both"):
            DPhyp().optimize(
                hyper, cost_model=model, catalog=random_catalog(5, rng)
            )

    def test_single_relation(self):
        hyper = Hypergraph.from_query_graph(chain_graph(1))
        result = DPhyp().optimize(hyper)
        assert result.plan.is_leaf
        assert result.counters.inner_counter == 0


class TestPlannableSets:
    def test_simple_graph_equals_connectivity(self):
        graph = chain_graph(5)
        hyper = Hypergraph.from_query_graph(graph)
        plannable = plannable_sets(hyper)
        for mask in range(1, graph.all_relations + 1):
            assert plannable[mask] == graph.is_connected_set(mask)

    def test_hyper_connected_but_unplannable(self):
        hyper = Hypergraph(3, [Hyperedge(0b011, 0b100, 0.5)])
        plannable = plannable_sets(hyper)
        assert hyper.is_connected_set(0b111)
        assert not plannable[0b111]

"""Unit and differential tests for LinDP, the ladder's middle rung."""

from __future__ import annotations

import random
from math import comb

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core.dpccp import DPccp
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.lindp import LinDP, leaf_order
from repro.cost.cout import CoutModel
from repro.cost.disk import DiskCostModel
from repro.errors import DisconnectedGraphError
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    graph_for_topology,
    random_connected_graph,
    random_tree_graph,
)
from repro.graph.querygraph import QueryGraph
from repro.plans.visitors import validate_plan

#: Relative tolerance for cost comparisons: the interval DP's float
#: sweep accumulates in a different association order than the model.
REL_TOL = 1e-9


def upper(cost: float) -> float:
    return cost * (1 + REL_TOL)


class TestValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            LinDP().optimize(QueryGraph(3, [(0, 1)]))


class TestLeafOrder:
    def test_leaf_order_is_a_permutation(self):
        graph = graph_for_topology("star", 7, rng=random.Random(3))
        plan = DPccp().optimize(graph, catalog=random_catalog(7, rng=3)).plan
        order = leaf_order(plan)
        assert sorted(order) == list(range(7))

    def test_leaf_order_respects_structure(self):
        # A left-deep chain's leaf order is its join order.
        graph = chain_graph(4, selectivity=0.1)
        plan = LinDP().optimize(graph).plan
        assert sorted(leaf_order(plan)) == [0, 1, 2, 3]


class TestEdgeCases:
    def test_single_relation(self):
        result = LinDP().optimize(chain_graph(1))
        assert result.plan.is_leaf

    def test_two_relations(self):
        result = LinDP().optimize(chain_graph(2, selectivity=0.5))
        assert result.plan.size == 2

    def test_counters_exposed(self):
        result = LinDP().optimize(
            chain_graph(8), catalog=random_catalog(8, rng=1)
        )
        assert result.counters.extra["lindp_orderings"] >= 1
        assert result.counters.extra["lindp_splits"] > 0
        assert result.counters.inner_counter > 0
        assert result.counters.create_join_tree_calls >= 7


class TestDifferential:
    @pytest.mark.parametrize("topology", ["chain", "star", "cycle", "clique"])
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_between_exact_and_goo(self, topology, n):
        """exact <= LinDP <= GOO on the paper's four topologies."""
        if topology == "clique" and n > 10:
            pytest.skip("exact clique reference too slow for tier-1")
        rng = random.Random(n * 31 + 1)
        graph = graph_for_topology(topology, n, rng=rng)
        catalog = random_catalog(n, rng)
        exact = DPccp().optimize(graph, catalog=catalog)
        lindp = LinDP().optimize(graph, catalog=catalog)
        goo = GreedyOperatorOrdering().optimize(graph, catalog=catalog)
        validate_plan(lindp.plan, graph)
        assert lindp.cost >= exact.cost / (1 + REL_TOL)
        assert lindp.cost <= upper(goo.cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_on_chains(self, seed):
        """Chains: the chain order is a linearization of the optimum."""
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        graph = chain_graph(n, rng=rng)
        catalog = random_catalog(n, rng)
        exact = DPccp().optimize(graph, catalog=catalog)
        lindp = LinDP().optimize(graph, catalog=catalog)
        assert lindp.cost == pytest.approx(exact.cost, rel=REL_TOL)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cyclic_graphs_never_worse_than_goo(self, seed):
        """The GOO-leaf-order linearization bounds LinDP above by GOO."""
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        graph = random_connected_graph(n, rng, rng.random())
        catalog = random_catalog(n, rng)
        lindp = LinDP().optimize(graph, catalog=catalog)
        goo = GreedyOperatorOrdering().optimize(graph, catalog=catalog)
        validate_plan(lindp.plan, graph)
        assert lindp.cost <= upper(goo.cost)

    def test_forced_proxy_ranking_path(self, monkeypatch):
        """Past 25 relations a tree ranks its IKKBZ roots by the
        left-deep proxy and sweeps only the best 4; at 25 it sweeps
        every root and never calls the proxy."""
        calls = [0]
        proxy_cost = LinDP._proxy_cost

        def counted(*args):
            calls[0] += 1
            return proxy_cost(*args)

        monkeypatch.setattr(LinDP, "_proxy_cost", staticmethod(counted))
        orderings = {}
        for n in (25, 26):
            rng = random.Random(5)
            graph = random_tree_graph(n, rng)
            catalog = random_catalog(n, rng)
            calls[0] = 0
            result = LinDP().optimize(graph, catalog=catalog)
            goo = GreedyOperatorOrdering().optimize(graph, catalog=catalog)
            validate_plan(result.plan, graph)
            assert result.cost <= upper(goo.cost)
            orderings[n] = (calls[0], result.counters.extra["lindp_orderings"])
        assert orderings[25] == (0, 26)  # GOO + every root
        assert orderings[26][0] >= 1
        assert orderings[26][1] == 5  # GOO + the best 4 roots


class TestPricedPath:
    """The generic interval DP for asymmetric / non-separable models."""

    @pytest.mark.parametrize("topology", ["chain", "star", "cycle"])
    def test_asymmetric_model_between_exact_and_goo(self, topology):
        rng = random.Random(17)
        graph = graph_for_topology(topology, 8, rng=rng)
        catalog = random_catalog(8, rng)
        model = DiskCostModel(graph, catalog)
        assert not model.symmetric  # guards the fixture, not LinDP
        exact = DPccp().optimize(graph, cost_model=model)
        lindp = LinDP().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        goo = GreedyOperatorOrdering().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        validate_plan(lindp.plan, graph)
        assert lindp.cost >= exact.cost / (1 + REL_TOL)
        assert lindp.cost <= upper(goo.cost)


class TestScale:
    @pytest.mark.parametrize("topology", ["chain", "star", "clique"])
    def test_100_relations_under_ten_seconds(self, topology):
        """n=100, any shape: a full plan, for counted work that is
        bounded by the orderings tried. The 10 s wall-clock gate itself
        runs in CI as ``repro.bench.lindp_bench --smoke``."""
        n = 100
        rng = random.Random(23)
        graph = graph_for_topology(topology, n, rng=rng)
        catalog = random_catalog(n, rng)
        result = LinDP().optimize(graph, catalog=catalog)
        validate_plan(result.plan, graph)
        assert result.plan.size == n
        # One interval DP per ordering tries each split i <= k < j at
        # most once: comb(n + 1, 3) candidates.
        extra = result.counters.extra
        assert extra["lindp_splits"] <= extra["lindp_orderings"] * comb(n + 1, 3)

    def test_clique_fallback_uses_bfs_orders(self):
        result = LinDP().optimize(
            clique_graph(12), catalog=random_catalog(12, rng=2)
        )
        # GOO order plus at least one BFS order (deduplicated starts).
        assert result.counters.extra["lindp_orderings"] >= 2

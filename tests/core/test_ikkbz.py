"""Unit tests for the IKKBZ left-deep baseline."""

from __future__ import annotations

import random

import pytest

from repro import bitset
from repro.catalog.synthetic import random_catalog
from repro.core.dpccp import DPccp
from repro.core.base import CounterSet
from repro.core.ikkbz import IKKBZ, _Module, ikkbz_orders
from repro.cost.cout import CoutModel
from repro.errors import OptimizerError
from repro.graph.generators import (
    chain_graph,
    cycle_graph,
    random_tree_graph,
    star_graph,
)
from repro.graph.querygraph import QueryGraph
from repro.plans.metrics import PlanShape, classify_plan_shape
from repro.plans.visitors import validate_plan


def optimal_left_deep_cost(graph: QueryGraph, catalog) -> float:
    """Independent DP over left-deep cross-product-free plans.

    best(S) = min over r in S, S \\ {r} connected and joined to r, of
    join(best(S \\ {r}), r). O(2^n * n); the oracle for IKKBZ.
    """
    model = CoutModel(graph, catalog)
    best: dict[int, object] = {
        bitset.bit(i): model.leaf(i) for i in range(graph.n_relations)
    }
    for mask in range(1, graph.all_relations + 1):
        if mask in best or not graph.is_connected_set(mask):
            continue
        champion = None
        for index in bitset.iter_bits(mask):
            rest = mask ^ bitset.bit(index)
            if rest not in best:
                continue
            if not graph.are_connected(rest, bitset.bit(index)):
                continue
            candidate = model.join(best[rest], model.leaf(index))
            if champion is None or candidate.cost < champion.cost:
                champion = candidate
        if champion is not None:
            best[mask] = champion
    return best[graph.all_relations].cost


class TestIKKBZ:
    def test_rejects_cyclic_graphs(self):
        with pytest.raises(OptimizerError):
            IKKBZ().optimize(cycle_graph(4))

    def test_plans_are_left_deep_and_valid(self):
        graph = star_graph(6, selectivity=0.03)
        result = IKKBZ().optimize(graph, catalog=random_catalog(6, rng=1))
        validate_plan(result.plan, graph)
        assert classify_plan_shape(result.plan) == PlanShape.LEFT_DEEP

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_left_deep_dp_on_random_trees(self, seed):
        """IKKBZ == optimal left-deep under C_out (the ASI guarantee)."""
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        graph = random_tree_graph(n, rng)
        catalog = random_catalog(n, rng)
        result = IKKBZ().optimize(graph, cost_model=CoutModel(graph, catalog))
        assert result.cost == pytest.approx(
            optimal_left_deep_cost(graph, catalog)
        )

    @pytest.mark.parametrize("builder", [chain_graph, star_graph])
    def test_never_beats_bushy_optimum(self, builder):
        rng = random.Random(9)
        graph = builder(7, rng=rng)
        catalog = random_catalog(7, rng)
        left_deep = IKKBZ().optimize(graph, catalog=catalog)
        bushy = DPccp().optimize(graph, catalog=catalog)
        assert left_deep.cost >= bushy.cost - 1e-9 * max(1.0, bushy.cost)

    def test_single_relation(self):
        assert IKKBZ().optimize(chain_graph(1)).plan.is_leaf

    def test_two_relations(self):
        graph = chain_graph(2, selectivity=0.5)
        result = IKKBZ().optimize(graph)
        assert result.plan.size == 2

    def test_orders_a_chain_of_1100_relations(self):
        """Deeper than the recursion limit: the chains use no recursion."""
        n = 1100
        graph = chain_graph(n, rng=random.Random(11))
        catalog = random_catalog(n, random.Random(11))
        counters = CounterSet()
        orders = ikkbz_orders(graph, CoutModel(graph, catalog).estimator, counters)
        # From either end, precedence forces the chain's own order.
        assert orders[0] == list(range(n))
        assert orders[-1] == list(range(n - 1, -1, -1))
        assert all(order[0] == root for root, order in enumerate(orders))
        assert counters.inner_counter == n * (n - 1)


class TestZeroCostRank:
    """Regression: C == 0 modules must order by the sign of T - 1.

    The old code returned -inf for every zero-cost module, letting a
    free *growing* module (T > 1) jump the queue and mis-linearize
    plans with free predicates.
    """

    def test_free_growing_module_ranks_last(self):
        assert _Module(indices=[0], t=2.0, c=0.0).rank == float("inf")

    def test_free_shrinking_module_ranks_first(self):
        assert _Module(indices=[0], t=0.5, c=0.0).rank == float("-inf")

    def test_free_neutral_module_is_indifferent(self):
        assert _Module(indices=[0], t=1.0, c=0.0).rank == 0.0

    def test_finite_rank_unchanged(self):
        assert _Module(indices=[0], t=3.0, c=4.0).rank == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_orderings_still_optimal_left_deep(self, seed):
        """The ASI guarantee holds for every root's ordering stream."""
        rng = random.Random(100 + seed)
        n = rng.randint(3, 8)
        graph = random_tree_graph(n, rng)
        catalog = random_catalog(n, rng)
        model = CoutModel(graph, catalog)
        oracle = optimal_left_deep_cost(graph, catalog)
        result = IKKBZ().optimize(graph, cost_model=CoutModel(graph, catalog))
        assert result.cost == pytest.approx(oracle)
        for root, order in enumerate(ikkbz_orders(graph, model.estimator)):
            assert sorted(order) == list(range(n))
            assert order[0] == root

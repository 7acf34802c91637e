"""Unit tests for the top-down branch-and-bound optimizer."""

from __future__ import annotations

import random

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core import DPccp, ExhaustiveOptimizer, TopDownBB
from repro.cost.cout import CoutModel
from repro.cost.disk import DiskCostModel
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    graph_for_topology,
    random_connected_graph,
    star_graph,
)
from repro.plans.visitors import validate_plan


class TestOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dpccp_cout(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        graph = random_connected_graph(n, rng, rng.random() * 0.7)
        catalog = random_catalog(n, rng)
        top_down = TopDownBB().optimize(graph, catalog=catalog)
        bottom_up = DPccp().optimize(graph, catalog=catalog)
        assert top_down.cost == pytest.approx(bottom_up.cost)
        validate_plan(top_down.plan, graph)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_disk_model(self, seed):
        """With no usable lower bound, B&B must still be exact."""
        rng = random.Random(50 + seed)
        n = rng.randint(2, 7)
        graph = random_connected_graph(n, rng, rng.random() * 0.6)
        catalog = random_catalog(n, rng)
        top_down = TopDownBB().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        reference = ExhaustiveOptimizer().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        assert top_down.cost == pytest.approx(reference.cost)

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    def test_paper_topologies(self, topology):
        graph = graph_for_topology(topology, 6, rng=random.Random(3))
        catalog = random_catalog(6, rng=3)
        top_down = TopDownBB().optimize(graph, catalog=catalog)
        bottom_up = DPccp().optimize(graph, catalog=catalog)
        assert top_down.cost == pytest.approx(bottom_up.cost)


class TestPruning:
    def test_bound_prunes_partitions(self):
        """On a skewed chain the bound must eliminate real work."""
        rng = random.Random(11)
        graph = chain_graph(10, rng=rng)
        catalog = random_catalog(10, rng)
        algorithm = TopDownBB()
        algorithm.optimize(graph, cost_model=CoutModel(graph, catalog))
        assert algorithm.pruned_partitions > 0

    def test_pruned_counter_resets_per_run(self):
        rng = random.Random(12)
        graph = star_graph(7, rng=rng)
        catalog = random_catalog(7, rng)
        algorithm = TopDownBB()
        algorithm.optimize(graph, catalog=catalog)
        first = algorithm.pruned_partitions
        algorithm.optimize(graph, catalog=catalog)
        assert algorithm.pruned_partitions == first

    def test_inspects_no_more_pairs_than_exhaustive(self):
        """B&B may skip *pricing*, never *inspect* more pairs."""
        graph = clique_graph(7, selectivity=0.1)
        top_down = TopDownBB().optimize(graph)
        reference = ExhaustiveOptimizer().optimize(graph)
        assert (
            top_down.counters.ono_lohman_counter
            <= reference.counters.ono_lohman_counter
        )


class TestRegistry:
    def test_name(self):
        from repro.core import make_algorithm

        assert make_algorithm("topdown").name == "TopDownBB"

    def test_single_relation(self):
        assert TopDownBB().optimize(chain_graph(1)).plan.is_leaf

"""Unit tests for the DPconv subset-convolution enumerator.

The differential battery (``tests/test_differential_optimal.py``) pins
DPconv's optima to the exhaustive oracle; this module pins everything
else: backend equivalence (the numpy and stdlib sweeps must produce the
same costs *and* the same counters), the priced fallback for
non-separable cost models, backend resolution/validation, and the
counter conventions shared with the paper's algorithms.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.core import DPccp, DPconv, DPsub
from repro.core import dpconv as dpconv_module
from repro.cost.disk import DiskCostModel
from repro.errors import OptimizerError
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    graph_for_topology,
    random_connected_graph,
    star_graph,
)
from repro.plans.visitors import validate_plan

HAS_NUMPY = dpconv_module._numpy_module() is not None

BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])


def make_dpconv(backend: str) -> DPconv:
    """A DPconv forced onto ``backend`` regardless of query size."""
    return DPconv(backend=backend)


def normalized_counters(result) -> dict:
    """Counter dict with the backend-identifying flag removed."""
    counters = result.counters.as_dict()
    counters.pop("vectorized", None)
    return counters


class TestOptimality:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "topology", ["chain", "cycle", "star", "clique"]
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_matches_dpsub_on_paper_topologies(self, backend, topology, n):
        if topology == "cycle" and n < 3:
            pytest.skip("cycle needs n >= 3")
        rng = random.Random(61 * n)
        graph = graph_for_topology(topology, n, rng=rng)
        catalog = random_catalog(n, rng)
        reference = DPsub().optimize(graph, catalog=catalog)
        result = make_dpconv(backend).optimize(graph, catalog=catalog)
        assert result.cost == pytest.approx(reference.cost, rel=1e-12)
        validate_plan(result.plan, graph)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dpsub_on_random_graphs(self, backend, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        graph = random_connected_graph(n, rng, rng.random() * 0.8)
        catalog = random_catalog(n, rng)
        reference = DPsub().optimize(graph, catalog=catalog)
        result = make_dpconv(backend).optimize(graph, catalog=catalog)
        assert result.cost == pytest.approx(reference.cost, rel=1e-12)
        validate_plan(result.plan, graph)

    def test_single_relation(self):
        result = DPconv().optimize(chain_graph(1))
        assert result.plan.size == 1
        assert result.counters.create_join_tree_calls == 0


class TestCounters:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_shared_counters_match_dpsub(self, backend, n):
        graph = clique_graph(n, selectivity=0.1)
        reference = DPsub().optimize(graph)
        result = make_dpconv(backend).optimize(graph)
        ours, theirs = result.counters, reference.counters
        assert ours.ono_lohman_counter == theirs.ono_lohman_counter
        assert ours.csg_cmp_pair_counter == theirs.csg_cmp_pair_counter
        assert (
            ours.connectivity_check_failures
            == theirs.connectivity_check_failures
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reconstruction_prices_n_minus_1_joins(self, backend):
        n = 9
        result = make_dpconv(backend).optimize(star_graph(n, selectivity=0.2))
        assert result.counters.create_join_tree_calls == n - 1
        assert result.counters.extra["lattice_passes"] == n - 1
        # leaves + one reconstructed plan per winning split
        assert result.table_size == 2 * n - 1

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")
    @pytest.mark.parametrize("make", [clique_graph, star_graph, cycle_graph])
    def test_backend_parity(self, make):
        """Same costs and same counters from both sweeps, always."""
        graph = make(9, selectivity=0.05)
        python = make_dpconv("python").optimize(graph)
        numpy = make_dpconv("numpy").optimize(graph)
        assert python.cost == numpy.cost
        assert normalized_counters(python) == normalized_counters(numpy)
        assert python.counters.extra["vectorized"] == 0
        assert numpy.counters.extra["vectorized"] == 1


class TestNonSeparableFallback:
    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_disk_model_is_exact(self, n):
        """Asymmetric, non-separable models get the priced enumeration."""
        rng = random.Random(5 * n)
        graph = cycle_graph(n, selectivity=0.2) if n > 2 else chain_graph(n)
        catalog = random_catalog(n, rng)
        reference = DPsub().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        result = DPconv().optimize(
            graph, cost_model=DiskCostModel(graph, catalog)
        )
        assert result.cost == pytest.approx(reference.cost, rel=1e-12)
        assert result.counters.extra["vectorized"] == 0
        assert (
            result.counters.ono_lohman_counter
            == reference.counters.ono_lohman_counter
        )
        # Both orders priced per valid pair — no value-DP collapse.
        assert (
            result.counters.create_join_tree_calls
            == 2 * result.counters.ono_lohman_counter
        )
        validate_plan(result.plan, graph)


class TestOverflowedEstimates:
    """Relations of 10^120 rows joined at selectivity 1: every set of
    three or more is estimated past the float range, so the whole query
    has no split of finite cost, and both sweeps record split 0 for it.
    """

    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param(
                "numpy",
                marks=pytest.mark.skipif(
                    not HAS_NUMPY, reason="numpy not importable"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("make, n", [(chain_graph, 7), (clique_graph, 9)])
    def test_plans_at_inf_like_dpccp(self, backend, make, n):
        graph = make(n, selectivity=1.0)
        catalog = uniform_catalog(n, 1e120)
        result = DPconv(backend=backend).optimize(graph, catalog=catalog)
        validate_plan(result.plan, graph)
        assert math.isinf(result.cost)
        assert DPccp().optimize(graph, catalog=catalog).cost == result.cost
        assert result.counters.create_join_tree_calls == n - 1


class TestBackendResolution:
    def test_rejects_unknown_backend(self):
        with pytest.raises(OptimizerError, match="backend"):
            DPconv(backend="fortran")

    def test_python_backend_never_resolves_numpy(self):
        assert DPconv(backend="python").resolved_backend(20) == "python"

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")
    def test_auto_switches_at_threshold(self):
        engine = DPconv(backend="auto")
        assert engine.resolved_backend(7) == "python"
        assert engine.resolved_backend(8) == "numpy"

    def test_numpy_backend_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(dpconv_module, "_numpy_module", lambda: None)
        engine = DPconv(backend="numpy")
        with pytest.raises(OptimizerError, match="requires numpy"):
            engine.optimize(chain_graph(4))

    def test_auto_degrades_without_numpy(self, monkeypatch):
        """No numpy anywhere → auto silently uses the stdlib sweep."""
        monkeypatch.setattr(dpconv_module, "_numpy_module", lambda: None)
        engine = DPconv(backend="auto")
        # At or above the threshold, so auto would otherwise pick numpy.
        graph = clique_graph(9, selectivity=0.1)
        result = engine.optimize(graph)
        assert result.counters.extra["vectorized"] == 0
        reference = DPsub().optimize(graph)
        assert result.cost == pytest.approx(reference.cost, rel=1e-12)

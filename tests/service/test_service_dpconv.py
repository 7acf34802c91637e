"""PlanService with the DPconv strategy: selection, deadlines, caching.

DPconv enters the service the same way every enumerator does — through
the ``ALGORITHMS`` registry — so these tests pin the integration
surface the ISSUE names: the strategy is selectable per request and as
the service default, adaptive-routed dense queries actually run it,
deadline pressure still degrades to the polynomial fallbacks, and
cache fingerprints of dpconv-planned queries hit across relabeled
twins.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.core import DPconv, make_algorithm, optimize
from repro.graph.generators import clique_graph
from repro.plans.visitors import validate_plan
from repro.service import PlanService


def make_dense_instance(n=8, seed=7):
    rng = random.Random(seed)
    graph = clique_graph(n, rng=rng)
    return graph, random_catalog(n, rng)


class TestSelection:
    def test_dpconv_selectable_per_request(self):
        with PlanService(workers=1) as service:
            graph, catalog = make_dense_instance(n=7)
            response = service.plan(graph, catalog, algorithm="dpconv")
            assert response.algorithm == "DPconv"
            direct = DPconv().optimize(graph, catalog=catalog)
            assert response.cost == pytest.approx(direct.cost)
            validate_plan(response.plan, graph)

    def test_dpconv_as_service_default(self):
        with PlanService(workers=1, algorithm="dpconv") as service:
            graph, catalog = make_dense_instance(n=6, seed=3)
            response = service.plan(graph, catalog)
            assert response.algorithm == "DPconv"
            assert not response.degraded

    def test_adaptive_routes_dense_queries_to_dpconv(self):
        """The service's default strategy reaches DPconv on cliques."""
        with PlanService(workers=1) as service:
            graph, catalog = make_dense_instance(n=8, seed=5)
            response = service.plan(graph, catalog)
            assert response.algorithm == "adaptive->DPconv"
            direct = optimize(graph, catalog=catalog, algorithm="adaptive")
            assert response.cost == pytest.approx(direct.cost)

    def test_overflowed_clique_plans_without_degrading(self):
        """Estimates past the float range leave DPconv no finite split;
        it still answers (at inf), so the request does not degrade."""
        graph = clique_graph(9, selectivity=1.0)
        catalog = uniform_catalog(9, 1e120)
        with PlanService() as service:
            response = service.plan(graph, catalog)
        assert not response.degraded
        assert response.error is None
        assert response.algorithm == "adaptive->DPconv"
        validate_plan(response.plan, graph)
        assert math.isinf(response.cost)

    def test_registry_constructs_dpconv(self):
        engine = make_algorithm("dpconv")
        assert isinstance(engine, DPconv)
        assert engine.name == "DPconv"


class TestDeadlines:
    def test_tiny_deadline_degrades_not_crashes(self):
        with PlanService(workers=1) as service:
            graph, catalog = make_dense_instance(n=12, seed=1)
            response = service.plan(
                graph, catalog, algorithm="dpconv", deadline_seconds=1e-6
            )
            assert response.degraded
            assert "degraded" in response.algorithm
            validate_plan(response.plan, graph)

    def test_generous_deadline_runs_dpconv_exactly(self):
        with PlanService(workers=1) as service:
            graph, catalog = make_dense_instance(n=7, seed=2)
            response = service.plan(
                graph, catalog, algorithm="dpconv", deadline_seconds=30.0
            )
            assert not response.degraded
            assert response.algorithm == "DPconv"


class TestCacheFingerprints:
    def test_repeat_request_hits_cache(self):
        with PlanService(workers=1, cache_capacity=64) as service:
            graph, catalog = make_dense_instance(n=7, seed=9)
            first = service.plan(graph, catalog, algorithm="dpconv")
            second = service.plan(graph, catalog, algorithm="dpconv")
            assert not first.cache_hit
            assert second.cache_hit
            assert second.cost == first.cost
            assert second.fingerprint_key == first.fingerprint_key

    def test_relabeled_twin_hits_dpconv_entry(self):
        """WL/canonical fingerprints are algorithm-agnostic: a dpconv
        plan cached for a query serves its relabeled twin, remapped."""
        n = 7
        with PlanService(workers=1, cache_capacity=64) as service:
            graph, catalog = make_dense_instance(n=n, seed=11)
            service.plan(graph, catalog, algorithm="dpconv")
            permutation = list(range(n))
            random.Random(4).shuffle(permutation)
            twin_graph = graph.relabelled(permutation)
            twin_catalog = catalog.relabelled(permutation)
            response = service.plan(
                twin_graph, twin_catalog, algorithm="dpconv"
            )
            assert response.cache_hit
            validate_plan(response.plan, twin_graph)
            direct = DPconv().optimize(twin_graph, catalog=twin_catalog)
            assert response.cost == pytest.approx(direct.cost)

    def test_dpconv_entries_not_shared_with_other_algorithms(self):
        with PlanService(workers=1, cache_capacity=64) as service:
            graph, catalog = make_dense_instance(n=6, seed=13)
            service.plan(graph, catalog, algorithm="dpconv")
            other = service.plan(graph, catalog, algorithm="dpsub")
            assert not other.cache_hit

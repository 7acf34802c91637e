"""Service-side escalation-ladder tests: rung-labelled degradation.

A deadline-expired request must be answered by stepping *down* the
ladder — cached rank-2, then LinDP (only where the routed rung was
exact), then GOO — and every degraded response must say which rung
served it (``PlanResponse.ladder_rung``), so "silently degrade" is
structurally impossible.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.synthetic import random_catalog
from repro.graph.generators import chain_graph, star_graph
from repro.plans.visitors import validate_plan
from repro.service import PlanService

TINY = 1e-9  # expired before optimization starts


def exact_routed_instance(n=13, seed=11):
    """A star the ladder routes at the exact rung (star ceiling 14)."""
    rng = random.Random(seed)
    return star_graph(n, rng=rng), random_catalog(n, rng)


def lindp_routed_instance(n=120, seed=11):
    """A chain routed at the lindp rung (past the chain ceiling 22)."""
    rng = random.Random(seed)
    return chain_graph(n, rng=rng), random_catalog(n, rng)


class TestLadderDegradation:
    def test_exact_routed_degrades_to_lindp(self):
        graph, catalog = exact_routed_instance()
        with PlanService(workers=1) as service:
            response = service.plan(graph, catalog, deadline_seconds=TINY)
        assert response.degraded
        assert response.ladder_rung == "lindp"
        assert "LinDP" in response.algorithm
        assert "(degraded)" in response.algorithm
        validate_plan(response.plan, graph)

    def test_lindp_routed_skips_to_goo(self):
        # The routed rung already was lindp: re-running it under a
        # burnt deadline would repeat the work that just timed out.
        graph, catalog = lindp_routed_instance()
        with PlanService(workers=1) as service:
            response = service.plan(graph, catalog, deadline_seconds=TINY)
        assert response.degraded
        assert response.ladder_rung == "goo"
        assert "GOO" in response.algorithm
        validate_plan(response.plan, graph)

    def test_undegraded_response_has_no_rung(self):
        graph, catalog = exact_routed_instance(n=6)
        with PlanService(workers=1) as service:
            response = service.plan(graph, catalog)
        assert not response.degraded
        assert response.ladder_rung is None

    def test_degraded_cost_never_below_direct_exact(self):
        """The rung plan is honest: a real plan for the real query."""
        graph, catalog = exact_routed_instance(n=10, seed=3)
        with PlanService(workers=1) as service:
            degraded = service.plan(graph, catalog, deadline_seconds=TINY)
        with PlanService(workers=1) as service:
            exact = service.plan(graph, catalog)
        assert degraded.cost >= exact.cost / (1 + 1e-9)


class TestRankTwoSource:
    @pytest.mark.parametrize(
        "k_best, rung, peeks, stale_served",
        [(1, "lindp", 0, 0), (2, "rank-2", 1, 1)],
    )
    def test_stale_entry_counts_only_when_it_serves(
        self, k_best, rung, peeks, stale_served
    ):
        graph, catalog = exact_routed_instance()
        rng = random.Random(5)
        with PlanService(cache_capacity=1, workers=1, k_best=k_best) as service:
            service.plan(graph, catalog)
            # The one cache slot goes to a second query; the LRU parks
            # the star's entry in the stale tier.
            service.plan(chain_graph(6, rng=rng), random_catalog(6, rng))
            probed = []
            peek_stale = service._cache.peek_stale

            def counted(key, usable):
                probed.append(key)
                return peek_stale(key, usable)

            service._cache.peek_stale = counted
            response = service.plan(graph, catalog, deadline_seconds=TINY)
        assert response.ladder_rung == rung
        assert len(probed) == peeks
        assert service.cache_stats().stale_served == stale_served

    def test_single_plan_stale_entry_is_not_counted(self):
        # The router plans a star-17 with LinDP, which has no in-run
        # capture, so even a k_best=2 entry holds one plan: the rank-2
        # probe finds it in the stale tier but cannot serve it.
        rng = random.Random(11)
        graph, catalog = star_graph(17, rng=rng), random_catalog(17, rng)
        with PlanService(cache_capacity=1, workers=1, k_best=2) as service:
            service.plan(graph, catalog)
            service.plan(chain_graph(6, rng=rng), random_catalog(6, rng))
            assert service.cache_stats().stale_size == 1
            response = service.plan(graph, catalog, deadline_seconds=0.0)
        assert response.degraded
        assert response.ladder_rung == "goo"
        validate_plan(response.plan, graph)
        assert service.cache_stats().stale_served == 0


class TestLadderSnapshot:
    def test_snapshot_reports_rung_counters(self):
        graph, catalog = exact_routed_instance()
        big_graph, big_catalog = lindp_routed_instance()
        with PlanService(workers=1) as service:
            service.plan(graph, catalog, deadline_seconds=TINY)
            service.plan(big_graph, big_catalog, deadline_seconds=TINY)
            snapshot = service.snapshot()
        ladder = snapshot["ladder"]
        assert ladder["degraded_rungs"]["lindp"] == 1
        assert ladder["degraded_rungs"]["goo"] == 1
        assert ladder["degraded_rungs"]["rank-2"] == 0

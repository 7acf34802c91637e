"""Unit tests for PlanService: caching, remapping, deadlines, lifecycle."""

from __future__ import annotations

import random

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core import optimize
from repro.errors import ServiceError
from repro.graph.generators import random_connected_graph, star_graph
from repro.plans.visitors import validate_plan
from repro.service import PlanRequest, PlanService


@pytest.fixture
def service():
    with PlanService(cache_capacity=128, workers=2) as svc:
        yield svc


def make_instance(n=8, seed=7, topology="star"):
    rng = random.Random(seed)
    if topology == "star":
        graph = star_graph(n, rng=rng)
    else:
        graph = random_connected_graph(n, rng, 0.3)
    return graph, random_catalog(n, rng)


class TestPlanning:
    def test_plan_matches_direct_optimization(self, service):
        graph, catalog = make_instance()
        response = service.plan(graph, catalog)
        direct = optimize(graph, catalog=catalog, algorithm="adaptive")
        assert response.cost == pytest.approx(direct.cost)
        assert not response.cache_hit
        assert not response.degraded
        validate_plan(response.plan, graph)

    def test_second_request_hits_cache(self, service):
        graph, catalog = make_instance()
        first = service.plan(graph, catalog)
        second = service.plan(graph, catalog)
        assert second.cache_hit
        assert second.cost == first.cost  # exact: same cached entry
        assert second.fingerprint_key == first.fingerprint_key

    def test_isomorphic_request_hits_and_is_remapped(self, service):
        graph, catalog = make_instance(n=7)
        service.plan(graph, catalog)
        permutation = list(range(7))
        random.Random(3).shuffle(permutation)
        twin_graph = graph.relabelled(permutation)
        twin_catalog = catalog.relabelled(permutation)
        response = service.plan(twin_graph, twin_catalog)
        assert response.cache_hit
        # the returned plan must be valid for the *twin's* numbering
        validate_plan(response.plan, twin_graph)
        direct = optimize(twin_graph, catalog=twin_catalog, algorithm="adaptive")
        assert response.cost == pytest.approx(direct.cost)

    def test_algorithms_do_not_share_entries(self, service):
        graph, catalog = make_instance(n=6)
        exact = service.plan(graph, catalog, algorithm="dpccp")
        greedy = service.plan(graph, catalog, algorithm="goo")
        assert not greedy.cache_hit
        assert greedy.cost >= exact.cost - 1e-9

    def test_single_relation_query(self, service):
        graph, catalog = make_instance(n=1)
        response = service.plan(graph, catalog)
        assert response.plan.is_leaf

    def test_plain_graph_without_catalog(self, service):
        graph, _ = make_instance(n=5)
        response = service.plan(graph)
        assert response.plan.size == 5


class TestDeadlines:
    def test_tiny_deadline_degrades_not_crashes(self, service):
        graph, catalog = make_instance(n=13, seed=1)
        response = service.plan(graph, catalog, deadline_seconds=1e-6)
        assert response.degraded
        assert "degraded" in response.algorithm
        validate_plan(response.plan, graph)

    def test_degraded_result_is_not_cached_but_background_fills(self, service):
        graph, catalog = make_instance(n=13, seed=2)
        degraded = service.plan(graph, catalog, deadline_seconds=1e-6)
        assert degraded.degraded
        # wait for the background optimization to land, then expect a hit
        import time

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            response = service.plan(graph, catalog, deadline_seconds=5.0)
            if response.cache_hit and not response.degraded:
                break
            time.sleep(0.01)
        assert response.cache_hit and not response.degraded

    def test_generous_deadline_returns_exact_plan(self, service):
        graph, catalog = make_instance(n=6)
        response = service.plan(graph, catalog, deadline_seconds=30.0)
        assert not response.degraded
        direct = optimize(graph, catalog=catalog, algorithm="adaptive")
        assert response.cost == pytest.approx(direct.cost)

    def test_default_deadline_from_config(self):
        with PlanService(workers=1, default_deadline_seconds=1e-6) as svc:
            graph, catalog = make_instance(n=13, seed=3)
            assert svc.plan(graph, catalog).degraded

    @pytest.mark.parametrize("deadline", [1e10, float("inf")])
    def test_deadline_past_timeout_max_waits_unbounded(self, deadline):
        """Past ``threading.TIMEOUT_MAX`` (~9.2e9 s), too long for a
        timed wait, so waited for like no deadline."""
        graph, catalog = make_instance(n=13, seed=11)
        with PlanService(workers=1) as svc:
            response = svc.plan(graph, catalog, deadline_seconds=deadline)
            assert not response.degraded
            assert response.error is None
            assert svc.instrumentation.counters.value("error_fallbacks") == 0


class TestConfigAndLifecycle:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ServiceError):
            PlanService(algorithm="nope")

    def test_rejects_bad_workers(self):
        with pytest.raises(ServiceError):
            PlanService(workers=0)

    def test_rejects_unknown_algorithm_per_request(self, service):
        graph, catalog = make_instance(n=4)
        with pytest.raises(ServiceError):
            service.plan(graph, catalog, algorithm="nope")

    def test_refused_algorithm_is_not_counted_as_a_request(self, service):
        graph, catalog = make_instance(n=4)
        service.plan(graph, catalog)
        with pytest.raises(ServiceError):
            service.plan(graph, catalog, algorithm="nope")
        bad = PlanRequest(graph, catalog, algorithm="nope")
        (answer,) = service.plan_batch([bad])
        assert answer.degraded
        counters = service.snapshot()["counters"]
        # One request reached the cache; the two refusals did not.
        assert counters["requests"] == 1
        assert counters["cache_misses"] == 1
        assert counters.get("cache_hits", 0) == 0
        assert counters.get("coalesced", 0) == 0

    def test_closed_service_refuses_requests(self):
        service = PlanService(workers=1)
        service.close()
        graph, catalog = make_instance(n=4)
        with pytest.raises(ServiceError):
            service.plan(graph, catalog)

    def test_submit_request_refuses_after_close(self):
        service = PlanService(workers=1)
        service.close()
        graph, catalog = make_instance(n=4)
        with pytest.raises(ServiceError):
            service.submit_request(PlanRequest(graph=graph, catalog=catalog))
        assert service._front_door is None

    def test_submit_request_close_race_does_not_revive_front_door(self):
        # Deterministic interleaving of the submit/close race: the first
        # _closed check sees an open service, close() completes before
        # the front-door lock is taken, and the re-check under the lock
        # must refuse instead of lazily creating a fresh executor on
        # the closed service (which would leak its threads forever).
        service = PlanService(workers=1)
        graph, catalog = make_instance(n=4)
        real_is_set = service._closed.is_set
        state = {"first": True}

        def racing_is_set():
            if state["first"]:
                state["first"] = False
                service.close()
                return False  # the pre-close snapshot the caller saw
            return real_is_set()

        service._closed.is_set = racing_is_set
        try:
            with pytest.raises(ServiceError):
                service.submit_request(
                    PlanRequest(graph=graph, catalog=catalog)
                )
        finally:
            del service._closed.is_set
        assert service._front_door is None

    def test_snapshot_contains_cache_and_latency(self, service):
        graph, catalog = make_instance(n=5)
        service.plan(graph, catalog)
        service.plan(graph, catalog)
        snapshot = service.snapshot()
        assert snapshot["cache"]["hits"] >= 1
        assert snapshot["counters"]["requests"] == 2
        assert snapshot["histograms"]["plan_latency"]["count"] == 2
        stats = service.cache_stats()
        assert stats.hit_rate > 0


class TestBatch:
    def test_batch_deduplicates_identical_fingerprints(self, service):
        graph, catalog = make_instance(n=7, seed=5)
        requests = [PlanRequest(graph=graph, catalog=catalog) for _ in range(10)]
        responses = service.plan_batch(requests)
        assert len(responses) == 10
        # exactly one optimization ran
        assert service.cache_stats().misses == 1
        costs = {response.cost for response in responses}
        assert len(costs) == 1
        assert sum(not response.cache_hit for response in responses) == 1

    def test_batch_with_relabelled_duplicates(self, service):
        graph, catalog = make_instance(n=6, seed=8)
        requests = []
        for seed in range(6):
            permutation = list(range(6))
            random.Random(seed).shuffle(permutation)
            requests.append(
                PlanRequest(
                    graph=graph.relabelled(permutation),
                    catalog=catalog.relabelled(permutation),
                )
            )
        responses = service.plan_batch(requests)
        assert service.cache_stats().misses == 1
        assert sum(not response.cache_hit for response in responses) == 1
        for request, response in zip(requests, responses):
            validate_plan(response.plan, request.graph)

    def test_batch_preserves_request_order(self, service):
        instances = [make_instance(n=5, seed=seed) for seed in range(4)]
        requests = [
            PlanRequest(graph=graph, catalog=catalog)
            for graph, catalog in instances
        ]
        responses = service.plan_batch(requests)
        for (graph, catalog), response in zip(instances, responses):
            direct = optimize(graph, catalog=catalog, algorithm="adaptive")
            assert response.cost == pytest.approx(direct.cost)

    def test_empty_batch(self, service):
        assert service.plan_batch([]) == []

    def test_closed_service_refuses_a_batch(self):
        service = PlanService(workers=1)
        service.close()
        graph, catalog = make_instance(n=6)
        with pytest.raises(ServiceError, match="closed"):
            service.plan_batch([PlanRequest(graph, catalog)] * 3)
        assert service._front_door is None

"""Service-level resilience: crashes degrade, deadlines are budgets.

The acceptance battery for the fault-tolerance layer:

* the chaos test SIGKILLs live worker processes under a 32-query mixed
  batch and requires 32 valid responses plus a healed pool;
* the deadline regression pins that ``deadline_seconds`` is a
  wall-clock *request* budget — time burned before the optimizer wait
  (fingerprinting, cache lookups) shrinks the wait;
* leader failures surface as degraded responses (for the leader and
  for every follower coalesced onto it), never as raw exceptions;
* one failing batch request cannot destroy the rest of the batch;
* an open circuit breaker keeps planning in-process and exact.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core import make_algorithm
from repro.errors import PoolBrokenError
from repro.graph.generators import graph_for_topology
from repro.parallel.worker import worker_pid
from repro.plans.visitors import validate_plan
from repro.service import PlanRequest, PlanService


def make_instance(topology, n, seed):
    rng = random.Random(seed)
    graph = graph_for_topology(topology, n, rng=rng)
    return graph, random_catalog(n, rng)


class TestErrorDegradation:
    def test_leader_failure_degrades_not_raises(self):
        graph, catalog = make_instance("star", 8, 3)
        with PlanService(workers=2) as service:
            def failing(request, fingerprint, algorithm, deadline_at=None):
                raise RuntimeError("simulated optimizer crash")

            service._optimize_canonical = failing
            response = service.plan(graph, catalog)
            assert response.degraded
            assert response.error is not None
            assert "simulated optimizer crash" in response.error
            validate_plan(response.plan, graph)
            counters = service.instrumentation.counters
            assert counters.value("error_fallbacks") == 1
            assert counters.value("errors") == 1  # abandoned job

    def test_followers_of_failed_leader_get_degraded_plans(self):
        graph, catalog = make_instance("star", 8, 4)
        with PlanService(workers=2) as service:
            release = threading.Event()
            entered = threading.Event()

            def failing(request, fingerprint, algorithm, deadline_at=None):
                entered.set()
                release.wait(timeout=10.0)
                raise RuntimeError("leader died")

            service._optimize_canonical = failing
            responses = []

            def submit():
                responses.append(service.plan(graph, catalog))

            leader = threading.Thread(target=submit)
            leader.start()
            assert entered.wait(timeout=10.0)
            follower = threading.Thread(target=submit)
            follower.start()
            time.sleep(0.1)  # let the follower join the in-flight future
            release.set()
            leader.join(timeout=30.0)
            follower.join(timeout=30.0)
            assert len(responses) == 2
            for response in responses:
                assert response.degraded
                assert response.error is not None and "leader died" in response.error
                validate_plan(response.plan, graph)
            assert service.cache_stats().coalesced == 1

    def test_error_response_not_cached(self):
        graph, catalog = make_instance("star", 7, 5)
        with PlanService(workers=2) as service:
            calls = []
            original = PlanService._optimize_canonical

            def flaky(request, fingerprint, algorithm, deadline_at=None):
                calls.append(algorithm)
                if len(calls) == 1:
                    raise RuntimeError("transient")
                return original(
                    service, request, fingerprint, algorithm, deadline_at
                )

            service._optimize_canonical = flaky
            first = service.plan(graph, catalog)
            assert first.degraded and first.error is not None
            second = service.plan(graph, catalog)
            assert not second.degraded and not second.cache_hit
            direct = make_algorithm("adaptive").optimize(graph, catalog=catalog)
            assert second.cost == pytest.approx(direct.cost)


class TestDeadlineBudget:
    def test_deadline_counts_time_before_the_wait(self):
        """Budget burned on cache lookup shrinks the optimizer wait.

        The cache lookup is patched to burn most of the 0.6 s budget;
        the pre-fix service then waited the *full* deadline again on
        the optimizer future (~1.1 s total floor). With the remaining-
        budget fix the request degrades at ~0.6 s wall clock.
        """
        graph, catalog = make_instance("clique", 12, 6)
        with PlanService(algorithm="dpsub", workers=2) as service:
            original = service._cache.get_or_join

            def slow_lookup(key):
                time.sleep(0.5)
                return original(key)

            service._cache.get_or_join = slow_lookup
            started = time.perf_counter()
            response = service.plan(graph, catalog, deadline_seconds=0.6)
            elapsed = time.perf_counter() - started
            assert response.degraded
            assert response.error is None  # deadline, not failure
            # ~0.5 burn + ~0.1 remaining wait + fast fallback; the old
            # full-deadline wait could not finish under ~1.1 s.
            assert elapsed < 0.95
            validate_plan(response.plan, graph)

    def test_expired_budget_degrades_immediately(self):
        graph, catalog = make_instance("clique", 12, 7)
        with PlanService(algorithm="dpsub", workers=2) as service:
            original = service._cache.get_or_join

            def slow_lookup(key):
                time.sleep(0.25)
                return original(key)

            service._cache.get_or_join = slow_lookup
            started = time.perf_counter()
            response = service.plan(graph, catalog, deadline_seconds=0.2)
            elapsed = time.perf_counter() - started
            assert response.degraded
            assert elapsed < 0.6


class TestBatchIsolation:
    def test_one_failing_group_does_not_destroy_the_batch(self):
        good_a = make_instance("star", 8, 11)
        bad = make_instance("star", 8, 12)
        good_b = make_instance("chain", 9, 13)
        with PlanService(workers=2) as service:
            original = service.plan_request

            def selective(request):
                if request.graph is bad[0]:
                    raise RuntimeError("group down")
                return original(request)

            service.plan_request = selective
            requests = [
                PlanRequest(*good_a),
                PlanRequest(*bad),
                PlanRequest(*good_b),
                PlanRequest(*bad),  # follower of the failing group
                PlanRequest(*good_a),  # follower of a healthy group
            ]
            responses = service.plan_batch(requests)
            assert len(responses) == len(requests)
            for index in (1, 3):
                assert responses[index].degraded
                assert responses[index].error is not None
                assert "group down" in responses[index].error
                validate_plan(responses[index].plan, requests[index].graph)
            for index in (0, 2, 4):
                assert not responses[index].degraded
                assert responses[index].error is None
            assert service.instrumentation.counters.value("degraded") == 2


class TestBreakerFallback:
    def test_open_breaker_keeps_planning_in_process(self):
        """A broken pool trips the breaker; later requests skip the pool."""
        instances = [make_instance("star", 8, 21), make_instance("chain", 9, 22)]
        with PlanService(
            algorithm="dpccp",
            jobs=2,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown_seconds=1e9,
        ) as service:
            pool = service._process_pool
            calls = []

            def broken_run_query(*args, **kwargs):
                calls.append(args)
                raise PoolBrokenError("simulated broken pool")

            pool.run_query = broken_run_query
            responses = []
            for graph, catalog in instances:
                responses.append(service.plan(graph, catalog))
                assert service.breaker_state == "open"
            assert len(calls) == 1
            for response, (graph, catalog) in zip(responses, instances):
                assert not response.degraded
                validate_plan(response.plan, graph)
                direct = make_algorithm("dpccp").optimize(graph, catalog=catalog)
                assert response.cost == pytest.approx(direct.cost, rel=1e-9)
            counters = service.instrumentation.counters
            assert counters.value("pool_fallbacks") == 1
            assert counters.value("process_planned") == 0
            assert not pool.spawned


class TestChaosBattery:
    """The ISSUE's acceptance chaos test, verbatim."""

    def test_killing_workers_mid_batch_degrades_gracefully(self):
        specs = []
        for index in range(32):
            topology = ("clique", "cycle", "star", "chain")[index % 4]
            n = (11, 13, 12, 14)[index % 4]
            specs.append(make_instance(topology, n, 100 + index))
        requests = [PlanRequest(graph, catalog) for graph, catalog in specs]

        with PlanService(algorithm="dpsub", workers=4, jobs=4) as service:
            pool = service._process_pool
            pids = {pool.submit(worker_pid, token).result() for token in range(8)}
            assert pids

            def killer():
                time.sleep(0.3)
                for pid in sorted(pids)[:2]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

            thread = threading.Thread(target=killer)
            thread.start()
            responses = service.plan_batch(requests)
            thread.join()

            assert len(responses) == 32
            for response, request in zip(responses, requests):
                validate_plan(response.plan, request.graph)
            counters = service.instrumentation.counters
            assert counters.value("pool.faults") >= 1
            assert counters.value("pool.respawns") >= 1
            assert service.snapshot()["resilience"]["pool_respawns"] >= 1
            # Every non-degraded response is the exact optimum.
            for response, (graph, catalog) in list(zip(responses, specs))[:8]:
                if not response.degraded:
                    direct = make_algorithm("dpsub").optimize(
                        graph, catalog=catalog
                    )
                    assert response.cost == pytest.approx(direct.cost)

            # The *next* batch on the same service succeeds, no restart.
            follow_up = [
                PlanRequest(*make_instance("star", 10, 200 + index))
                for index in range(4)
            ]
            second = service.plan_batch(follow_up)
            assert len(second) == 4
            for response, request in zip(second, follow_up):
                assert not response.degraded
                assert response.error is None
                validate_plan(response.plan, request.graph)

"""The exact-instance table in front of canonical fingerprinting.

A repeated request, in its own numbering, must skip fingerprinting and
plan relabelling while the cache keeps deciding hits. These tests count
calls to the two functions instead of timing them, so they do not
depend on host speed; the budget tests assert only the lower bound a
sleeping fingerprint guarantees.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

import repro.service.optimizer_service as optimizer_service
from repro.catalog.synthetic import random_catalog
from repro.graph.generators import graph_for_topology, star_graph
from repro.graph.querygraph import QueryGraph
from repro.plans.visitors import iter_leaves, validate_plan
from repro.service import PlanRequest, PlanService


def make_request(topology="chain", n=8, seed=11) -> PlanRequest:
    rng = random.Random(seed)
    graph = graph_for_topology(topology, n, rng=rng)
    return PlanRequest(graph, random_catalog(n, rng))


def renumbered(request: PlanRequest, seed=5) -> PlanRequest:
    permutation = list(range(request.graph.n_relations))
    random.Random(seed).shuffle(permutation)
    return PlanRequest(
        request.graph.relabelled(permutation),
        request.catalog.relabelled(permutation),
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts of real fingerprint and relabel calls made by the service."""
    counts = {"fingerprint": 0, "relabel": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        optimizer_service,
        "compute_fingerprint",
        counted("fingerprint", optimizer_service.compute_fingerprint),
    )
    monkeypatch.setattr(
        optimizer_service,
        "relabel_plan",
        counted("relabel", optimizer_service.relabel_plan),
    )
    return counts


class TestWorkPin:
    def test_repeats_skip_fingerprint_and_relabel(self, calls):
        query = make_request()
        twin = renumbered(query)
        with PlanService(workers=1) as service:
            first = service.plan_request(query)
            twin_first = service.plan_request(twin)
            assert not first.cache_hit and twin_first.cache_hit
            assert calls == {"fingerprint": 2, "relabel": 2}
            hits = service.cache_stats().hits
            for _ in range(50):
                assert service.plan_request(query).plan == first.plan
                assert service.plan_request(twin).plan == twin_first.plan
            assert calls == {"fingerprint": 2, "relabel": 2}
            assert service.cache_stats().hits == hits + 100

    def test_renamed_copy_fingerprints_and_relabels_once(self, calls):
        query = make_request()
        graph = query.graph
        names = [f"t{index}" for index in range(graph.n_relations)]
        renamed = PlanRequest(
            QueryGraph(graph.n_relations, graph.edges, names), query.catalog
        )
        with PlanService(workers=1) as service:
            service.plan_request(query)
            service.plan_request(query)
            before = dict(calls)
            response = service.plan_request(renamed)
            assert response.cache_hit
            assert calls["fingerprint"] == before["fingerprint"] + 1
            assert calls["relabel"] == before["relabel"] + 1
            leaves = {leaf.name for leaf in iter_leaves(response.plan)}
            assert leaves == set(names)
            validate_plan(response.plan, renamed.graph)

    def test_clear_cache_makes_the_next_repeat_a_miss(self, calls):
        query = make_request()
        with PlanService(workers=1) as service:
            service.plan_request(query)
            assert service.plan_request(query).cache_hit
            service.clear_cache()
            response = service.plan_request(query)
            assert not response.cache_hit
            assert service.cache_stats().misses == 2

    def test_capacity_one_evicts_between_repeats(self, calls):
        first = make_request("chain", 7, seed=1)
        second = make_request("star", 6, seed=2)
        with PlanService(workers=1, cache_capacity=1) as service:
            assert not service.plan_request(first).cache_hit
            assert not service.plan_request(second).cache_hit
            again = service.plan_request(first)
            assert not again.cache_hit
            stats = service.cache_stats()
            assert (stats.hits, stats.misses, stats.evictions) == (0, 3, 2)
            validate_plan(again.plan, first.graph)
            # The table is bounded like the cache: B displaced A there too.
            assert calls["fingerprint"] == 3


class TestRequestBudget:
    @pytest.fixture
    def slow_fingerprint(self, monkeypatch):
        original = optimizer_service.compute_fingerprint

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer_service, "compute_fingerprint", slow)

    def test_fingerprinting_counts_toward_elapsed_seconds(self, slow_fingerprint):
        rng = random.Random(4)
        graph = star_graph(9, rng=rng)
        with PlanService(workers=1) as service:
            response = service.plan(
                graph, random_catalog(9, rng), deadline_seconds=0.02
            )
        assert response.elapsed_seconds >= 0.05

    def test_batch_fingerprinting_counts_toward_elapsed_seconds(
        self, slow_fingerprint
    ):
        rng = random.Random(4)
        graph = star_graph(9, rng=rng)
        with PlanService(workers=1) as service:
            (response,) = service.plan_batch(
                [PlanRequest(graph, random_catalog(9, rng))]
            )
        assert response.elapsed_seconds >= 0.05

    def test_fingerprinting_draws_from_the_deadline(self, slow_fingerprint):
        rng = random.Random(4)
        graph = star_graph(13, rng=rng)
        with PlanService(workers=1) as service:
            response = service.plan(
                graph, random_catalog(13, rng), deadline_seconds=0.02
            )
        assert response.degraded
        validate_plan(response.plan, graph)


class TestSpans:
    def test_miss_fingerprints_inside_the_request_span(self):
        query = make_request()
        with PlanService(workers=1) as service:
            service.plan_request(query)
            service.plan_request(query)
            miss, repeat = service.instrumentation.tracer.roots(
                "service.request"
            )
        assert [child.name for child in miss.children][0] == "service.fingerprint"
        assert {"service.relabel", "service.cache_lookup"} <= {
            child.name for child in miss.children
        }
        names = {child.name for child in repeat.children}
        assert "service.cache_lookup" in names
        assert not names & {"service.fingerprint", "service.relabel"}
        assert repeat.attributes["outcome"] == "hit"

    def test_batch_requests_fingerprint_inside_their_own_spans(self):
        requests = [make_request("chain", 6, seed=1), make_request("star", 7, seed=2)]
        with PlanService(workers=2) as service:
            service.plan_batch(requests)
            roots = service.instrumentation.tracer.roots("service.request")
        assert len(roots) == 2
        for root in roots:
            assert root.children[0].name == "service.fingerprint"


class TestConcurrency:
    def test_threads_sharing_a_small_table_serve_correct_plans(self):
        requests = [make_request("chain", 6 + index, seed=index) for index in range(4)]
        requests += [renumbered(request, seed=9) for request in requests]
        with PlanService(workers=2) as reference:
            expected = [reference.plan_request(r).plan for r in requests]
        failures: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PlanService(workers=2, cache_capacity=2) as service:

                def client(seed: int) -> None:
                    order = random.Random(seed)
                    for _ in range(60):
                        index = order.randrange(len(requests))
                        plan = service.plan_request(requests[index]).plan
                        if plan != expected[index]:
                            failures.append(f"request {index}")

                threads = [
                    threading.Thread(target=client, args=(seed,))
                    for seed in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert service.cache_stats().lookups == 6 * 60
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

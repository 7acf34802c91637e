"""Concurrency guarantees: no lost increments, spans consistent with metrics.

The 8-thread hammer covers the primitive instruments; the service-level
regression pins the property the obs layer exists for — the service's
aggregate counters are exactly the sum of its per-request span data, so
dashboards built on either view can never disagree.
"""

from __future__ import annotations

import random
import threading

from repro.graph.generators import graph_for_topology
from repro.catalog.synthetic import random_catalog
from repro.obs import CounterRegistry, Histogram, Instrumentation
from repro.service import PlanRequest, PlanService

THREADS = 8
INCREMENTS = 10_000


def hammer(worker, threads: int = THREADS):
    """Run ``worker(thread_index)`` on N threads, joining all."""
    pool = [
        threading.Thread(target=worker, args=(index,)) for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestCounterHammer:
    def test_no_lost_increments_on_one_counter(self):
        registry = CounterRegistry()

        def worker(_index):
            counter = registry.counter("shared")
            for _ in range(INCREMENTS):
                counter.increment()

        hammer(worker)
        assert registry.value("shared") == THREADS * INCREMENTS

    def test_no_lost_increments_across_contended_names(self):
        """Threads race on registry creation *and* on increments."""
        registry = CounterRegistry()

        def worker(index):
            for iteration in range(INCREMENTS):
                registry.increment(f"name-{(index + iteration) % 4}")

        hammer(worker)
        total = sum(registry.snapshot().values())
        assert total == THREADS * INCREMENTS
        assert len(registry) == 4


class TestHistogramHammer:
    def test_count_and_sum_are_exact(self):
        histogram = Histogram(window=256)

        def worker(_index):
            for _ in range(INCREMENTS // 10):
                histogram.observe(0.001)

        hammer(worker)
        expected = THREADS * (INCREMENTS // 10)
        assert histogram.count == expected
        summary = histogram.summary()
        assert summary["count"] == expected
        # Every sample is identical, so all percentiles must agree even
        # under interleaved writes.
        assert summary["p50_ms"] == summary["p99_ms"] == 1.0

    def test_snapshot_during_writes_is_consistent(self):
        histogram = Histogram()
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            while not stop.is_set():
                histogram.observe(0.002)

        def reader():
            for _ in range(200):
                summary = histogram.summary()
                if summary["count"] and summary["min_ms"] != 2.0:
                    failures.append(str(summary))

        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in writers:
            thread.start()
        reader()
        stop.set()
        for thread in writers:
            thread.join()
        assert not failures


class TestServiceSpansMatchMetrics:
    """PlanService aggregate metrics == the sum of per-request spans."""

    def test_counters_equal_span_sums(self):
        rng = random.Random(5)
        obs = Instrumentation(span_capacity=4096)
        requests = []
        for index in range(40):
            seed = rng.randrange(6)  # small pool => repeats => cache hits
            query_rng = random.Random(seed)
            graph = graph_for_topology("star", 7, rng=query_rng)
            requests.append(
                PlanRequest(graph=graph, catalog=random_catalog(7, query_rng))
            )
        with PlanService(
            algorithm="dpccp", workers=4, instrumentation=obs
        ) as service:
            responses = service.plan_batch(requests)
            snapshot = service.snapshot()

        assert len(responses) == len(requests)
        request_spans = obs.tracer.roots("service.request")
        outcomes = [span.attributes["outcome"] for span in request_spans]

        counters = snapshot["counters"]
        assert len(request_spans) == counters["requests"] == len(requests)
        assert outcomes.count("miss") == counters["cache_misses"]
        assert outcomes.count("degraded") == counters.get("degraded", 0) == 0
        assert outcomes.count("hit") == counters["cache_hits"] + counters.get(
            "coalesced", 0
        )
        # The latency histogram and the span tree measure the same
        # population: one observation per request span.
        assert snapshot["histograms"]["plan_latency"]["count"] == len(
            request_spans
        )
        # Span wall times and histogram totals agree on magnitude: each
        # span strictly contains the timed section it mirrors.
        assert all(span.wall_seconds >= 0.0 for span in request_spans)

    def test_degraded_requests_are_spanned_too(self):
        obs = Instrumentation(span_capacity=1024)
        rng = random.Random(9)
        graph = graph_for_topology("clique", 9, rng=rng)
        catalog = random_catalog(9, rng)
        with PlanService(
            algorithm="dpsub", workers=1, instrumentation=obs
        ) as service:
            response = service.plan(
                graph, catalog, deadline_seconds=0.0
            )  # expires immediately => degrade
        assert response.degraded
        spans = obs.tracer.roots("service.request")
        assert [span.attributes["outcome"] for span in spans] == ["degraded"]
        degrade_children = [
            child
            for child in spans[0].walk()
            if child.name == "service.degrade"
        ]
        assert len(degrade_children) == 1
        assert obs.counters.value("degraded") == 1

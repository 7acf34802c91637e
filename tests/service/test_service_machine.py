"""A state machine over :class:`PlanService` (hypothesis).

The machine interleaves synchronous planning, zero-deadline planning,
asynchronous submission, batches and cache clears on one
``PlanService(workers=2, k_best=2, cache_capacity=2)``. It draws from
four small queries, each also sent as a renumbered twin. With two cache
slots a third distinct query pushes an entry into the stale tier, so
the rank-2 degradation source is reachable without waiting out a TTL.

After every step, once the step's futures have resolved:

* every response is a valid cross-product-free plan for its own
  request;
* ``requests == cache_hits + cache_misses + coalesced``;
* ``degraded`` equals the sum of the ``degraded_rung_*`` counters;
* ``stale_served <= degraded_rung_rank-2``: a stale entry counts only
  when it serves.

Teardown closes the service and requires that no worker or front-door
thread outlives it.
"""

from __future__ import annotations

import random
import threading

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.catalog.synthetic import random_catalog
from repro.graph.generators import graph_for_topology
from repro.plans.visitors import validate_plan
from repro.service import PlanRequest, PlanService


def _queries() -> list[tuple]:
    """Four small queries, each followed by a renumbered twin."""
    queries = []
    for seed, (topology, n) in enumerate(
        (("chain", 6), ("star", 7), ("cycle", 5), ("clique", 5))
    ):
        rng = random.Random(seed)
        graph = graph_for_topology(topology, n, rng=rng)
        catalog = random_catalog(n, rng)
        permutation = list(range(n))
        rng.shuffle(permutation)
        queries.append((graph, catalog))
        queries.append(
            (graph.relabelled(permutation), catalog.relabelled(permutation))
        )
    return queries


QUERIES = _queries()
QUERY = st.sampled_from(range(len(QUERIES)))
DEADLINE = st.sampled_from([None, 0.0])
SERVICE_THREADS = ("plan-service", "plan-front")


class PlanServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.threads_before = set(threading.enumerate())
        self.service = PlanService(workers=2, k_best=2, cache_capacity=2)
        self.answered: list[tuple[PlanRequest, object]] = []

    def _plan(self, query: int, deadline: float | None) -> None:
        graph, catalog = QUERIES[query]
        request = PlanRequest(graph, catalog, deadline_seconds=deadline)
        self.answered.append((request, self.service.plan_request(request)))

    @rule(query=QUERY)
    def plan(self, query: int) -> None:
        self._plan(query, None)

    @rule(query=QUERY)
    def plan_expired(self, query: int) -> None:
        self._plan(query, 0.0)

    @rule(queries=st.lists(QUERY, min_size=1, max_size=3), deadline=DEADLINE)
    def submit(self, queries: list[int], deadline: float | None) -> None:
        requests = [
            PlanRequest(*QUERIES[query], deadline_seconds=deadline)
            for query in queries
        ]
        futures = [self.service.submit_request(request) for request in requests]
        for request, future in zip(requests, futures):
            self.answered.append((request, future.result(timeout=60)))

    @rule(queries=st.lists(QUERY, min_size=1, max_size=4), deadline=DEADLINE)
    def batch(self, queries: list[int], deadline: float | None) -> None:
        requests = [
            PlanRequest(*QUERIES[query], deadline_seconds=deadline)
            for query in queries
        ]
        responses = self.service.plan_batch(requests)
        assert len(responses) == len(requests)
        self.answered.extend(zip(requests, responses))

    @rule()
    def clear(self) -> None:
        self.service.clear_cache()

    @invariant()
    def responses_are_valid_plans(self) -> None:
        for request, response in self.answered:
            validate_plan(response.plan, request.graph)
            assert response.degraded == (response.ladder_rung is not None)
            assert response.plan_rank == (
                2 if response.ladder_rung == "rank-2" else 1
            )
        self.answered.clear()

    @invariant()
    def counters_reconcile(self) -> None:
        counters = self.service.snapshot()["counters"]
        assert counters.get("requests", 0) == sum(
            counters.get(name, 0)
            for name in ("cache_hits", "cache_misses", "coalesced")
        )
        rungs = {
            name: value
            for name, value in counters.items()
            if name.startswith("degraded_rung_")
        }
        assert counters.get("degraded", 0) == sum(rungs.values())
        stale_served = self.service.cache_stats().stale_served
        assert stale_served <= rungs.get("degraded_rung_rank-2", 0)

    def teardown(self) -> None:
        self.service.close()
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith(SERVICE_THREADS)
            and thread not in self.threads_before
        ]
        assert not leaked, leaked


PlanServiceMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestPlanServiceMachine = PlanServiceMachine.TestCase

"""PlanningPool and the service's process-pool integration."""

from __future__ import annotations

import random

import pytest

from repro.catalog.catalog import Catalog
from repro.core.dpccp import DPccp
from repro.errors import OptimizerError
from repro.graph.generators import graph_for_topology
from repro.parallel import PlanningPool, default_jobs
from repro.service import PlanRequest, PlanService


def instance(n, seed):
    rng = random.Random(seed)
    graph = graph_for_topology("star" if n % 2 else "clique", n, rng=rng)
    catalog = Catalog.from_cardinalities(
        [float(rng.randint(10, 9999)) for _ in range(n)]
    )
    return graph, catalog


class TestPlanningPool:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(OptimizerError):
            PlanningPool(0)

    def test_lazy_spawn_and_repr(self):
        pool = PlanningPool(2)
        assert not pool.spawned
        assert "cold" in repr(pool)
        pool.close()  # closing a never-spawned pool is fine

    def test_submit_after_close_rejected(self):
        pool = PlanningPool(2)
        pool.close()
        with pytest.raises(OptimizerError):
            pool.submit(len, ())

    def test_run_query_matches_sequential(self):
        graph, catalog = instance(7, seed=1)
        reference = DPccp().optimize(graph, catalog=catalog)
        with PlanningPool(2) as pool:
            outcome = pool.run_query(graph, catalog, "dpccp")
            assert pool.spawned
        assert outcome.result.cost == reference.cost
        assert outcome.result.counters.as_dict() == reference.counters.as_dict()
        assert repr(outcome.result.plan) == repr(reference.plan)
        assert outcome.cpu_seconds >= 0.0


class TestServiceProcessPool:
    def test_jobs_enable_process_planning(self):
        cases = [(6, 2), (7, 3), (8, 4)]
        refs = {}
        with PlanService(algorithm="dpccp") as service:
            for n, seed in cases:
                graph, catalog = instance(n, seed)
                refs[(n, seed)] = service.plan(graph, catalog).cost
            assert service.jobs == 1
        with PlanService(algorithm="dpccp", jobs=2, workers=2) as service:
            assert service.jobs == 2
            requests = [
                PlanRequest(*instance(n, seed)) for n, seed in cases
            ] + [PlanRequest(*instance(6, 2))]
            responses = service.plan_batch(requests)
            for index, (n, seed) in enumerate(cases):
                assert responses[index].cost == refs[(n, seed)]
            assert responses[3].cache_hit
            counters = service.instrumentation.counters
            # Worker-process runs land in the shared obs registries.
            assert counters.value("process_planned") == len(cases)
            assert (
                counters.value("enumerator.DPccp.inner_loop_tests") > 0
            )

    def test_submit_request_future(self):
        graph, catalog = instance(6, 5)
        with PlanService(algorithm="dpccp") as service:
            reference = service.plan(graph, catalog).cost
        with PlanService(algorithm="dpccp", jobs=2) as service:
            future = service.submit_request(
                PlanRequest(graph=graph, catalog=catalog)
            )
            assert future.result().cost == reference

    def test_rejects_bad_jobs(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            PlanService(jobs=0)


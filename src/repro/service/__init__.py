"""Service layer: a plan-caching optimizer front door.

The modules below turn the one-shot optimizer library into a long-lived
service suitable for heavy repeated traffic:

* :mod:`~repro.service.fingerprint` — canonical, isomorphism-stable
  cache keys for (graph, catalog) pairs;
* :mod:`~repro.service.plancache` — thread-safe LRU + TTL cache with a
  stampede guard;
* :mod:`~repro.service.optimizer_service` — :class:`PlanService`, the
  cache → worker pool → deadline/degradation pipeline, with batch
  planning over the same request path;
* :mod:`~repro.service.metrics` — text rendering of the service's
  counter and latency snapshot.

The pipeline is fault-tolerant end to end: worker-process crashes are
retried on a respawned pool (:mod:`repro.parallel.resilience`),
persistent faults trip a circuit breaker that degrades planning to the
in-process sequential path, deadlines are wall-clock request budgets
(cache waits, pool queueing and retries all draw from them), and a
failed exact optimization answers from the degradation sources (a
cached rank-2 plan, then the ladder's LinDP and GOO rungs) flagged
``degraded=True`` — requests degrade, they do not raise.

Quick start::

    from repro.service import PlanService
    from repro.graph import star_graph
    from repro.catalog import random_catalog

    with PlanService(cache_capacity=256) as service:
        graph, catalog = star_graph(8, rng=__import__("random").Random(1)), random_catalog(8, 1)
        first = service.plan(graph, catalog)     # optimizes
        second = service.plan(graph, catalog)    # cache hit, same cost
        assert second.cache_hit and second.cost == first.cost
"""

from repro.service.fingerprint import Fingerprint, compute_fingerprint, quantize
from repro.service.metrics import render_snapshot
from repro.service.optimizer_service import PlanRequest, PlanResponse, PlanService
from repro.service.plancache import CacheStats, PlanCache

__all__ = [
    "PlanService",
    "PlanRequest",
    "PlanResponse",
    "PlanCache",
    "CacheStats",
    "Fingerprint",
    "compute_fingerprint",
    "quantize",
    "render_snapshot",
]

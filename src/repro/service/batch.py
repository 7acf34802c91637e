"""Batch planning with in-flight fingerprint deduplication.

A workload replay, a prepared-statement warm-up, or a burst of
dashboard queries frequently contains the *same* query many times —
often under different relation numberings. :func:`plan_batch`
fingerprints every request up front, groups them by cache key, and
optimizes each distinct query exactly once:

* one *leader* request per group is planned concurrently on a bounded
  submission pool (the service's worker pool does the actual DP work);
* the remaining *followers* are then answered from the entry the
  leader just produced — each translated into its own request's
  numbering, since group members may be different relabelings of the
  same canonical query.

Follower responses go through the normal service path, so cache
hit/miss counters reflect the deduplication honestly: a batch of N
identical queries records 1 miss and N-1 hits.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.optimizer_service import (
        PlanRequest,
        PlanResponse,
        PlanService,
    )

__all__ = ["plan_batch", "default_concurrency"]

#: Submission threads per service worker: two, so a new leader is
#: always queued behind each in-flight optimization and an oversized
#: worker pool is never starved by the submission side.
SUBMITTERS_PER_WORKER = 2


def default_concurrency(service: "PlanService") -> int:
    """Submission-pool bound derived from the service's worker pool.

    Submitter threads only enqueue work and wait; the service's worker
    pool does the actual DP. Two submitters per worker keeps every
    worker saturated (one waiting leader queued behind each running
    one) regardless of how large the service was configured — a
    hardcoded bound would starve services with more workers than it.
    """
    return max(1, SUBMITTERS_PER_WORKER * service.workers)


def plan_batch(
    service: "PlanService", requests: Sequence["PlanRequest"]
) -> "list[PlanResponse]":
    """Plan ``requests`` through ``service``, one optimization per distinct query.

    Leaders are submitted on ``min(default_concurrency(service), number
    of distinct queries)`` threads — two submitters per service worker.

    Args:
        service: the :class:`~repro.service.optimizer_service.PlanService`
            to plan through.
        requests: any number of requests; duplicates (by fingerprint
            and algorithm) are detected automatically.

    Returns:
        Responses aligned index-by-index with ``requests``.
    """
    if not requests:
        return []
    metrics = service.metrics
    metrics.counter("batch_requests").increment(len(requests))

    with service.instrumentation.span(
        "service.batch_fingerprint", requests=len(requests)
    ):
        fingerprints = [
            service.fingerprint_of(request.graph, request.catalog)
            for request in requests
        ]
    groups: "OrderedDict[str, list[int]]" = OrderedDict()
    for index, (request, fingerprint) in enumerate(zip(requests, fingerprints)):
        groups.setdefault(service.cache_key_of(request, fingerprint), []).append(index)
    metrics.counter("batch_deduplicated").increment(len(requests) - len(groups))

    responses: "list[PlanResponse | None]" = [None] * len(requests)
    workers = max(1, min(default_concurrency(service), len(groups)))
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="plan-batch"
    ) as pool:
        leader_jobs = {
            key: pool.submit(
                service.plan_prepared,
                requests[members[0]],
                fingerprints[members[0]],
            )
            for key, members in groups.items()
        }
        # Failure isolation: one group's leader raising must not
        # destroy the whole batch — its members get degraded responses
        # carrying the failure, every other group proceeds untouched.
        failures: "dict[str, BaseException]" = {}
        for key, members in groups.items():
            try:
                responses[members[0]] = leader_jobs[key].result()
            except Exception as error:
                failures[key] = error
                metrics.counter("batch_group_failures").increment()
                responses[members[0]] = service.plan_degraded(
                    requests[members[0]], fingerprints[members[0]], error=error
                )

    # Followers: the leader's entry is now cached (unless it degraded),
    # so these resolve as cache hits — microseconds each, no DP rerun.
    # Members of a failed group go straight to the degraded path; a
    # follower whose own service pass raises is isolated the same way.
    for key, members in groups.items():
        for index in members[1:]:
            error = failures.get(key)
            if error is not None:
                responses[index] = service.plan_degraded(
                    requests[index], fingerprints[index], error=error
                )
                continue
            try:
                responses[index] = service.plan_prepared(
                    requests[index], fingerprints[index]
                )
            except Exception as follower_error:
                metrics.counter("batch_group_failures").increment()
                responses[index] = service.plan_degraded(
                    requests[index], fingerprints[index], error=follower_error
                )
    return [response for response in responses if response is not None]

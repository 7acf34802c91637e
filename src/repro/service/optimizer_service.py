"""The plan service: a long-lived, caching optimizer front door.

:class:`PlanService` turns the one-shot optimizer library into
something a query engine can keep resident and hammer:

* every request is **fingerprinted** (canonical relabeling + quantized
  stats) and answered from the :class:`~repro.service.plancache.PlanCache`
  when an equivalent query was planned before — cached plans are stored
  in canonical numbering and translated back to the request's
  numbering, so isomorphic queries share one entry;
* an **exact-instance table** sits in front of fingerprinting: a
  request whose graph and cardinalities equal an earlier request's, in
  its own numbering, reuses that request's fingerprint, and — while the
  cache still hands back the same entry — its already-translated plan,
  so a repeat skips canonicalization and relabelling;
* misses run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
  so a burst of cold queries cannot monopolize the caller's thread, and
  concurrent identical misses are **coalesced** into one optimization
  (the cache's stampede guard);
* every request may carry a **deadline**; when the routed algorithm
  cannot answer in time (or fails) the service *degrades* instead of
  failing. It tries one ordered list of sources: the request's own
  cached **rank-2 plan** when the service retains ranked plans
  (``k_best >= 2``, see :mod:`repro.core.kbest`), then the rungs of
  :meth:`repro.core.adaptive.AdaptiveOptimizer.degradation_path`
  (LinDP while the query is small enough, then GOO), run on the
  caller's thread. The first source that answers serves the response,
  flagged ``degraded=True`` with the source in ``ladder_rung``, while
  the routed optimization finishes in the background so the *next*
  request hits the cache;
* the cache can be **sharded** (``cache_shards``) into independent
  lock domains via :class:`~repro.service.sharding.ShardedPlanCache`,
  so concurrent lookups for distinct fingerprints stop contending on
  one lock;
* counters and latency histograms record all of the above in the
  service's :class:`~repro.obs.Instrumentation` registries.

Caching never changes what a plan costs: a hit returns a plan with
exactly the cost a fresh optimization of the cached instance produced.
The only approximation is the fingerprint's stat quantization — two
queries whose statistics agree to
:data:`~repro.service.fingerprint.DEFAULT_CARD_DIGITS` /
:data:`~repro.service.fingerprint.DEFAULT_SEL_DIGITS` significant
digits deliberately share an entry.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core import ALGORITHMS, make_algorithm
from repro.errors import OptimizerError, PoolBrokenError, ServiceError
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree
from repro.plans.visitors import relabel_plan
from repro.service.fingerprint import Fingerprint, compute_fingerprint
from repro.obs.instrumentation import Instrumentation
from repro.service.plancache import CacheStats
from repro.service.sharding import ShardedPlanCache

__all__ = ["PlanRequest", "PlanResponse", "PlanService"]


@dataclass(frozen=True, slots=True)
class PlanRequest:
    """One optimization request.

    Attributes:
        graph: connected query graph in the caller's numbering.
        catalog: optional statistics aligned with ``graph``.
        deadline_seconds: per-request budget; ``None`` inherits the
            service default (which may also be ``None`` = unbounded).
        algorithm: registry name overriding the service default.
    """

    graph: QueryGraph
    catalog: Catalog | None = None
    deadline_seconds: float | None = None
    algorithm: str | None = None


@dataclass(frozen=True, slots=True)
class PlanResponse:
    """What the service returns for one request.

    Attributes:
        plan: join tree in the *request's* numbering.
        algorithm: name of the algorithm that produced the plan.
        cache_hit: the plan came from the cache or from a computation
            another request had already started.
        degraded: the deadline expired (or the routed optimization
            failed) and ``plan`` came from a degradation source named
            by ``ladder_rung``, not from the routed optimization.
        fingerprint_key: the request's canonical identity (cache key
            sans algorithm prefix).
        elapsed_seconds: wall-clock time this request spent in the
            service, fingerprinting, queueing and waiting included.
        optimize_seconds: time the underlying optimization itself took
            (the cached value for hits and rank-2 answers; the rung's
            own time when a rung answered).
        error: short description of the exact optimization's failure
            when this response degraded because of one (worker crash,
            optimizer bug) rather than a deadline; ``None`` otherwise.
        plan_rank: which rank of the cached k-best list this plan is.
            ``1`` for every exact answer (and for rung answers, which
            have no ranked list); ``2`` when a degraded request was
            answered from the retained rank-2 tree.
        ladder_rung: which degradation source served a ``degraded``
            response — ``"rank-2"`` (retained k-best tree), ``"lindp"``
            or ``"goo"``. ``None`` for non-degraded responses.
    """

    plan: JoinTree
    algorithm: str
    cache_hit: bool
    degraded: bool
    fingerprint_key: str
    elapsed_seconds: float
    optimize_seconds: float
    error: str | None = None
    plan_rank: int = 1
    ladder_rung: str | None = None

    @property
    def cost(self) -> float:
        """Cost of the returned plan."""
        return self.plan.cost


@dataclass(frozen=True, slots=True)
class _CacheEntry:
    """A cached optimization, stored in canonical numbering.

    ``canonical_plans`` is the rank-ordered k-best tuple (rank 1
    first); services configured with ``k_best=1`` store a 1-tuple.
    """

    canonical_plans: tuple[JoinTree, ...] = field(repr=False)
    algorithm: str
    optimize_seconds: float

    @property
    def canonical_plan(self) -> JoinTree:
        """The rank-1 (champion) plan."""
        return self.canonical_plans[0]


@dataclass(frozen=True, slots=True)
class _ExactHit:
    """What the exact-instance table remembers about one request.

    ``plan`` is ``entry``'s rank-1 plan translated into the request's
    numbering and names; it is served again only while the cache still
    returns this very ``entry`` object for the request.
    """

    fingerprint: Fingerprint
    entry: _CacheEntry = field(repr=False)
    plan: JoinTree = field(repr=False)


def _budget_left(deadline: float | None, started: float) -> float | None:
    """Seconds left of a request budget that started at ``started``.

    ``None`` means wait without a bound: the request has no deadline,
    or what is left exceeds :data:`threading.TIMEOUT_MAX`, the longest
    timeout a wait accepts.
    """
    if deadline is None:
        return None
    left = max(0.0, deadline - (time.perf_counter() - started))
    return None if left >= threading.TIMEOUT_MAX else left


class PlanService:
    """Long-lived plan-caching optimizer service.

    Args:
        algorithm: default algorithm registry name (``adaptive`` picks
            DPsub on near-cliques, DPccp elsewhere — the paper's own
            recommendation).
        cache_capacity / ttl_seconds: plan cache bounds.
            ``cache_capacity`` also bounds the exact-instance table
            (see :meth:`plan_request`), which drops its oldest entry
            first; the cache alone decides hits, TTL and LRU order.
        cache_shards: independent lock domains the cache is split over
            (consistent hashing; see
            :class:`~repro.service.sharding.ShardedPlanCache`). ``1``
            keeps the single-lock layout and the historical ``cache.*``
            counter names.
        k_best: ranked plans retained per cache entry
            (1..:data:`repro.core.kbest.MAX_K`). With ``k_best >= 2``
            cache misses plan in-process via
            :func:`repro.core.kbest.k_best_plans` (the process pool
            ships only the champion home, so pooled planning stays
            rank-1-only and is bypassed), and degraded responses try
            the cached rank-2 tree (``PlanResponse.plan_rank``) before
            any rung.
        workers: optimizer thread-pool size.
        jobs: worker *processes* for the actual enumeration. ``None``
            or ``1`` keeps optimization in-process on the thread pool
            (the GIL-bound baseline); ``>= 2`` moves every cache-miss
            optimization onto a shared
            :class:`~repro.parallel.pool.PlanningPool`, so distinct
            misses truly plan concurrently. The thread pool then
            only coordinates (fingerprint, cache, relabel, wait).
        default_deadline_seconds: deadline applied to requests that do
            not carry their own; ``None`` means unbounded. A deadline
            is a *wall-clock request budget*: fingerprinting, cache
            waits, pool queueing and fault retries all draw from it,
            and expiry degrades the request instead of failing it.
            The clock starts when :meth:`plan_request` opens the
            request span, before the exact-instance lookup;
            ``elapsed_seconds`` counts from the same instant. A budget
            too large for a timed wait (:data:`threading.TIMEOUT_MAX`)
            waits unbounded.
        max_retries: re-submissions after a worker-process fault
            (``BrokenProcessPool``) before the request degrades to
            in-process planning; ``0`` fails over immediately.
        breaker_threshold / breaker_cooldown_seconds: circuit breaker
            over the process pool — after ``breaker_threshold``
            consecutive exhausted-retry faults the service stops
            touching the pool (planning in-process instead) until a
            half-open probe after the cooldown heals it.
        instrumentation: shared :class:`repro.obs.Instrumentation`; the
            service creates a private one when not given. Cache
            counters, request counters/latencies, per-request span
            trees and the enumerators' ``enumerator.*`` events all land
            in this one context — including the counters of runs that
            executed on worker *processes*, which the service merges
            back in when the result ships home.

    The service is a context manager; :meth:`close` drains the worker
    pool (and the process pool when ``jobs`` enabled one).
    """

    def __init__(
        self,
        algorithm: str = "adaptive",
        cache_capacity: int = 1024,
        ttl_seconds: float | None = None,
        cache_shards: int = 1,
        k_best: int = 1,
        workers: int = 4,
        jobs: int | None = None,
        default_deadline_seconds: float | None = None,
        max_retries: int = 2,
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 30.0,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            known = ", ".join(sorted(ALGORITHMS))
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; expected one of: {known}"
            )
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        if jobs is not None and jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        if default_deadline_seconds is not None and default_deadline_seconds < 0:
            raise ServiceError("default_deadline_seconds must be >= 0")
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        from repro.core.kbest import MAX_K

        if not 1 <= k_best <= MAX_K:
            raise ServiceError(f"k_best must be in 1..{MAX_K}, got {k_best}")
        self._algorithm = algorithm
        self._k_best = k_best
        # Routing policy of the degradation rungs: which ones a
        # degraded request may run synchronously (degradation_path).
        from repro.core.adaptive import AdaptiveOptimizer

        self._ladder = AdaptiveOptimizer()
        self._default_deadline = default_deadline_seconds
        self._obs = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self._cache = ShardedPlanCache(
            shards=cache_shards,
            capacity=cache_capacity,
            ttl_seconds=ttl_seconds,
            counters=self._obs.counters,
        )
        # (graph, cardinalities) -> _ExactHit, in insertion order so the
        # oldest entry goes first. Reads are single dict lookups; writes
        # take the lock.
        self._exact: dict[tuple, _ExactHit] = {}
        self._exact_lock = threading.Lock()
        self._exact_capacity = cache_capacity
        self._workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="plan-service"
        )
        # Resilience policy: the breaker exists even without a process
        # pool (it is then permanently closed and free), so snapshots
        # and configuration validation stay uniform.
        from repro.parallel.resilience import CircuitBreaker, RetryPolicy

        try:
            self._retry_policy = RetryPolicy(max_retries=max_retries)
            self._breaker = CircuitBreaker(
                threshold=breaker_threshold,
                cooldown_seconds=breaker_cooldown_seconds,
                instrumentation=self._obs,
            )
        except OptimizerError as error:
            raise ServiceError(str(error)) from error
        if jobs is not None and jobs > 1:
            from repro.parallel.pool import PlanningPool

            self._process_pool: "PlanningPool | None" = PlanningPool(
                jobs,
                retry_policy=self._retry_policy,
                instrumentation=self._obs,
            )
        else:
            self._process_pool = None
        # Front door for submit_request(); created lazily and kept
        # separate from self._executor — plan_request itself submits
        # to and waits on the worker pool, so running it there could
        # deadlock a fully-loaded pool.
        self._front_door: ThreadPoolExecutor | None = None
        self._front_door_lock = threading.Lock()
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def plan(
        self,
        graph: QueryGraph,
        catalog: Catalog | None = None,
        *,
        deadline_seconds: float | None = None,
        algorithm: str | None = None,
    ) -> PlanResponse:
        """Plan one query; the convenience form of :meth:`plan_request`."""
        return self.plan_request(
            PlanRequest(
                graph=graph,
                catalog=catalog,
                deadline_seconds=deadline_seconds,
                algorithm=algorithm,
            )
        )

    def plan_sql(
        self,
        sql: str,
        *,
        tables=None,
        estimator: str = "independence",
        deadline_seconds: float | None = None,
        algorithm: str | None = None,
        stats_catalog: Catalog | None = None,
    ) -> PlanResponse:
        """Plan straight from SQL text through the pipeline's front half.

        Parses ``sql``, prepares the instance under the chosen
        estimator (``"independence"`` — annotated/default numbers, or
        ``"statistics"`` — selectivities derived from analyzing
        ``tables``/``stats_catalog``; see
        :func:`repro.pipeline.prepare_query`), and plans it with the
        full cache/deadline machinery. Because statistics are folded
        into the prepared ``(graph, catalog)``, fingerprinting and
        caching work unchanged: two SQL queries whose *derived*
        instances agree share a cache entry, while the same text under
        different estimators does not.
        """
        from repro.pipeline import prepare_query

        prepared = prepare_query(
            sql, tables=tables, estimator=estimator, stats_catalog=stats_catalog
        )
        return self.plan(
            prepared.graph,
            prepared.catalog,
            deadline_seconds=deadline_seconds,
            algorithm=algorithm,
        )

    def plan_request(self, request: PlanRequest) -> PlanResponse:
        """Plan one :class:`PlanRequest` through cache, pool and deadline.

        The request's clock and ``service.request`` span start first.
        Then the exact-instance table is probed with the key
        ``(graph, cardinalities)`` — the graph's names, edges and raw
        selectivities and the catalog's cardinalities, in the request's
        own numbering. These are every input of the fingerprint, so a
        table hit reuses the stored :class:`Fingerprint`; a miss
        fingerprints in a ``service.fingerprint`` child span. The cache
        lookup always runs, so TTL, LRU order, eviction,
        :meth:`clear_cache` and the cache counters behave the same
        either way. When the cache returns the entry the table
        remembers, the stored plan is served without relabelling. A
        renumbered or renamed copy of a query, or statistics that differ
        only below the quantization digits, misses the table and shares
        the cache entry through the fingerprint as before.
        """
        if self._closed.is_set():
            raise ServiceError("the plan service is closed")
        with self._obs.span(
            "service.request",
            algorithm=request.algorithm or self._algorithm,
            n_relations=request.graph.n_relations,
        ) as span:
            started = time.perf_counter()
            response = self._plan_under_span(request, started)
            if span is not None:
                span.attributes["outcome"] = (
                    "degraded"
                    if response.degraded
                    else "hit" if response.cache_hit else "miss"
                )
                span.attributes["elapsed_seconds"] = response.elapsed_seconds
            return response

    def submit_request(self, request: PlanRequest) -> "Future[PlanResponse]":
        """Plan asynchronously; returns a future for the response.

        The request runs through the full :meth:`plan_request` pipeline
        on a dedicated front-door thread (separate from the optimizer
        worker pool, which the pipeline itself blocks on), so callers
        can fan out many requests without blocking and event loops can
        ``await asyncio.wrap_future(service.submit_request(r))``.
        """
        return self._front_door_executor().submit(self.plan_request, request)

    def submit_sql(self, sql: str, **kwargs) -> "Future[PlanResponse]":
        """Asynchronous :meth:`plan_sql`; returns a future for the response.

        Same front-door executor as :meth:`submit_request`, so parsing
        and statistics preparation also stay off the caller's thread —
        this is what the asyncio HTTP server awaits for ``plan_sql``
        requests.
        """
        return self._front_door_executor().submit(self.plan_sql, sql, **kwargs)

    def _front_door_executor(self) -> ThreadPoolExecutor:
        """The lazily-created front-door pool (raises when closed)."""
        if self._closed.is_set():
            raise ServiceError("the plan service is closed")
        with self._front_door_lock:
            # Re-check under the lock: a close() racing past the check
            # above has already swapped the executor to None, and lazily
            # recreating one here would leak threads on a closed service.
            if self._closed.is_set():
                raise ServiceError("the plan service is closed")
            if self._front_door is None:
                self._front_door = ThreadPoolExecutor(
                    max_workers=max(2, self._workers),
                    thread_name_prefix="plan-front",
                )
            return self._front_door

    def _plan_under_span(
        self, request: PlanRequest, started: float
    ) -> PlanResponse:
        """The request pipeline proper (exact table → cache → pool →
        deadline)."""
        catalog = request.catalog
        exact_key = (
            request.graph,
            None if catalog is None else catalog.cardinalities(),
        )
        remembered = self._exact.get(exact_key)
        if remembered is not None:
            fingerprint = remembered.fingerprint
        else:
            with self._obs.span("service.fingerprint"):
                fingerprint = self.fingerprint_of(request.graph, catalog)
        counters = self._obs.counters
        counters.increment("requests")
        algorithm = request.algorithm or self._algorithm
        if algorithm not in ALGORITHMS:
            known = ", ".join(sorted(ALGORITHMS))
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; expected one of: {known}"
            )
        deadline = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self._default_deadline
        )
        cache_key = f"{algorithm}:{fingerprint.key}"

        with self._obs.span("service.cache_lookup"):
            status, payload = self._cache.get_or_join(cache_key)
        if status == "hit":
            counters.increment("cache_hits")
            return self._respond(
                request, fingerprint, payload, started, True, exact_key, remembered
            )

        if status == "leader":
            # The remaining budget (not the full deadline) flows into
            # the worker job so pool fault retries stop once the
            # request could no longer profit from them.
            left = _budget_left(deadline, started)
            deadline_at = None if left is None else time.monotonic() + left
            job = self._executor.submit(
                self._optimize_canonical,
                request,
                fingerprint,
                algorithm,
                deadline_at,
            )
            job.add_done_callback(
                lambda finished: self._complete(cache_key, finished)
            )
            counters.increment("cache_misses")
        else:
            counters.increment("coalesced")

        future: Future = payload if status == "follower" else job
        try:
            with self._obs.span("service.wait", role=status):
                entry = future.result(timeout=_budget_left(deadline, started))
        except FutureTimeoutError:
            return self._degrade(request, fingerprint, started)
        except Exception as error:
            # The leader's optimization failed (worker crash past every
            # retry, optimizer bug) — and for followers that failure
            # arrived through PlanCache.abandon. Either way the request
            # degrades instead of re-raising an exception the caller
            # cannot act on.
            counters.increment("error_fallbacks")
            return self._degrade(request, fingerprint, started, error=error)
        # A leader's entry is a fresh optimization (the done-callback
        # stores it); a follower's was computed by another request.
        cache_hit = status == "follower"
        return self._respond(
            request, fingerprint, entry, started, cache_hit, exact_key, remembered
        )

    def _optimize_canonical(
        self,
        request: PlanRequest,
        fingerprint: Fingerprint,
        algorithm: str,
        deadline_at: float | None = None,
    ) -> _CacheEntry:
        """Worker-pool body: optimize the canonical twin of the request.

        ``deadline_at`` is the request's remaining budget as a
        :func:`time.monotonic` instant; it bounds pool *fault retries*
        (a request nobody waits for anymore should not keep paying for
        respawn-and-retry cycles), while a healthy optimization is
        never cut short — a late result still lands in the cache.
        """
        canonical_graph, canonical_catalog = fingerprint.canonical_instance(
            request.graph, request.catalog
        )
        if self._k_best > 1:
            # Ranked retention needs the in-run capture hook, which the
            # process-pool protocol does not carry (workers ship only
            # the champion home) — so k-best services plan in-process.
            from repro.core.kbest import k_best_plans

            with self._obs.span(
                "service.kbest_plan",
                algorithm=algorithm,
                n_relations=canonical_graph.n_relations,
            ):
                kbest = k_best_plans(
                    canonical_graph,
                    k=self._k_best,
                    algorithm=algorithm,
                    catalog=canonical_catalog,
                    instrumentation=self._obs,
                )
            result = kbest.result
            self._obs.histograms.observe("optimize_seconds", result.elapsed_seconds)
            return _CacheEntry(
                canonical_plans=kbest.plans,
                algorithm=result.algorithm,
                optimize_seconds=result.elapsed_seconds,
            )
        result = None
        if self._process_pool is not None and self._breaker.allow():
            # CPU-bound enumeration runs off the GIL on a worker
            # process; this pool thread just waits. The worker runs
            # uninstrumented and ships the whole OptimizationResult
            # home, where its counters are published into the shared
            # obs registries exactly once — same events as the
            # in-process path, plus process-pool accounting. Worker
            # death is retried inside run_query; exhausted retries
            # trip the breaker and planning falls through to the
            # in-process path below.
            try:
                with self._obs.span(
                    "service.process_plan",
                    algorithm=algorithm,
                    n_relations=canonical_graph.n_relations,
                ):
                    outcome = self._process_pool.run_query(
                        canonical_graph,
                        canonical_catalog,
                        algorithm,
                        deadline_at=deadline_at,
                    )
            except PoolBrokenError:
                self._breaker.record_failure()
                self._obs.counters.increment("pool_fallbacks")
            else:
                self._breaker.record_success()
                result = outcome.result
                self._obs.record_optimization(result)
                self._obs.counters.increment("process_planned")
                self._obs.observe(
                    "service.worker_cpu_seconds", outcome.cpu_seconds
                )
        if result is None:
            # In-process sequential planning: the configured path when
            # jobs <= 1, the degraded path when the pool is broken or
            # the breaker is open. The enumerator's optimize:<name>
            # span becomes its own root on this thread, and its
            # counters land in the shared registries.
            result = make_algorithm(algorithm).optimize(
                canonical_graph,
                catalog=canonical_catalog,
                instrumentation=self._obs,
            )
        self._obs.histograms.observe("optimize_seconds", result.elapsed_seconds)
        return _CacheEntry(
            canonical_plans=(result.plan,),
            algorithm=result.algorithm,
            optimize_seconds=result.elapsed_seconds,
        )

    def _complete(self, cache_key: str, job: Future) -> None:
        """Pipe a finished worker job into the cache (or abandon it)."""
        error = None if job.cancelled() else job.exception()
        if job.cancelled() or error is not None:
            self._obs.counters.increment("errors")
            self._cache.abandon(cache_key, error)
        else:
            self._cache.fulfill(cache_key, job.result())

    def _remember_exact(self, exact_key: tuple, hit: _ExactHit) -> None:
        """Store ``hit`` as the newest exact-table entry; drop the oldest
        past ``cache_capacity``."""
        with self._exact_lock:
            self._exact.pop(exact_key, None)
            self._exact[exact_key] = hit
            while len(self._exact) > self._exact_capacity:
                self._exact.pop(next(iter(self._exact)))

    def _relabel(
        self, request: PlanRequest, fingerprint: Fingerprint, plan: JoinTree
    ) -> JoinTree:
        """Translate a canonical plan into the request's numbering."""
        with self._obs.span("service.relabel"):
            return relabel_plan(
                plan, fingerprint.old_of_new, names=request.graph.names
            )

    def _respond(
        self,
        request: PlanRequest,
        fingerprint: Fingerprint,
        entry: _CacheEntry,
        started: float,
        cache_hit: bool,
        exact_key: tuple,
        remembered: _ExactHit | None,
    ) -> PlanResponse:
        """Answer with a canonical cache entry's rank-1 plan.

        ``remembered`` is what the exact-instance table held for
        ``exact_key`` (``None`` on a table miss); its plan is reused
        when the cache served the same entry object. Otherwise the
        plan is relabelled and remembered.
        """
        if remembered is not None and remembered.entry is entry:
            plan = remembered.plan
        else:
            plan = self._relabel(request, fingerprint, entry.canonical_plan)
            self._remember_exact(exact_key, _ExactHit(fingerprint, entry, plan))
        return self._response(
            fingerprint,
            started,
            plan,
            entry.algorithm,
            entry.optimize_seconds,
            cache_hit,
        )

    def _response(
        self,
        fingerprint: Fingerprint,
        started: float,
        plan: JoinTree,
        algorithm: str,
        optimize_seconds: float,
        cache_hit: bool,
        rung: str | None = None,
        error: str | None = None,
    ) -> PlanResponse:
        """Build a :class:`PlanResponse` and record its ``plan_latency``.

        Every answer goes through here. ``rung`` names the degradation
        source of a degraded answer (``None`` otherwise); the rank-2
        source serves ``plan_rank=2``.
        """
        elapsed = time.perf_counter() - started
        self._obs.histograms.observe("plan_latency", elapsed)
        return PlanResponse(
            plan=plan,
            algorithm=algorithm,
            cache_hit=cache_hit,
            degraded=rung is not None,
            fingerprint_key=fingerprint.key,
            elapsed_seconds=elapsed,
            optimize_seconds=optimize_seconds,
            error=error,
            plan_rank=2 if rung == "rank-2" else 1,
            ladder_rung=rung,
        )

    def _degrade(
        self,
        request: PlanRequest,
        fingerprint: Fingerprint,
        started: float,
        error: BaseException | None = None,
    ) -> PlanResponse:
        """Deadline expired or the routed algorithm failed: answer from
        the first degradation source that can.

        The sources, in order, inside one ``service.degrade`` span:

        * ``"rank-2"``: the second tree of the request's own cache
          entry, live or parked in the stale tier (one
          :meth:`~repro.service.sharding.ShardedPlanCache.peek_stale`)
          — an optimal-subplans candidate the DP itself priced, and
          deliberately not the rank-1 champion, which the in-flight
          recomputation re-delivers fresh. It passes when the entry is
          gone or holds a single plan (see :mod:`repro.core.kbest` for
          which graphs keep one), and the probe counts a stale entry
          (``stale_served``) only when it serves. A service that keeps
          one plan per entry (``k_best=1``) skips this source.
        * the rungs of
          :meth:`repro.core.adaptive.AdaptiveOptimizer.degradation_path`
          (LinDP for exact-routed queries small enough, then GOO), run
          on the caller's thread (the pool may be what is saturated)
          against the request's own numbering. A rung refusing the
          instance passes; GOO, always last, never refuses a connected
          graph.

        On deadline expiry the routed optimization keeps running in the
        background and lands in the cache for future requests; on
        failure (``error`` given) nothing was cached and the response
        carries the failure description. Degraded plans are never
        cached.
        """
        self._obs.counters.increment("degraded")
        reason = None if error is None else f"{type(error).__name__}: {error}"
        sources = self._ladder.degradation_path(request.graph)
        if self._k_best > 1:
            sources = ("rank-2", *sources)
        with self._obs.span("service.degrade") as span:
            for rung in sources:
                answer = self._degraded_answer(rung, request, fingerprint)
                if answer is not None:
                    break
            if span is not None:
                span.attributes["rung"] = rung
                if reason is not None:
                    span.attributes["error"] = reason
        assert answer is not None
        self._obs.counters.increment(f"degraded_rung_{rung}")
        return self._response(
            fingerprint, started, *answer, rung == "rank-2", rung, reason
        )

    def _degraded_answer(
        self, rung: str, request: PlanRequest, fingerprint: Fingerprint
    ) -> tuple[JoinTree, str, float] | None:
        """One degradation source's plan, algorithm label and optimize
        seconds, or ``None`` when it passes (see :meth:`_degrade`)."""
        if rung == "rank-2":
            found = self._cache.peek_stale(
                self.cache_key_of(request, fingerprint),
                lambda entry: len(entry.canonical_plans) >= 2,
            )
            if found is None:
                return None
            entry: _CacheEntry = found[1]
            plan = self._relabel(request, fingerprint, entry.canonical_plans[1])
            return plan, f"{entry.algorithm} (rank-2)", entry.optimize_seconds
        try:
            result = make_algorithm(rung).optimize(
                request.graph, catalog=request.catalog, instrumentation=self._obs
            )
        except OptimizerError:
            return None
        return result.plan, f"{result.algorithm} (degraded)", result.elapsed_seconds

    # ------------------------------------------------------------------
    # Batch, introspection, lifecycle
    # ------------------------------------------------------------------

    def plan_batch(self, requests: "list[PlanRequest]") -> list[PlanResponse]:
        """Plan many requests concurrently; responses align with
        ``requests``.

        Every request goes through :meth:`submit_request`, so each one
        runs the full :meth:`plan_request` pipeline under its own span
        and deadline. Duplicates, renumbered ones included, share one
        optimization through the cache's stampede guard: one request
        per cache key plans, and the others join it or hit the entry
        it leaves. A request whose pipeline raises is answered from the
        degradation sources with the failure in ``error``, so one bad
        request cannot sink the batch. A closed service raises
        :class:`ServiceError`.
        """
        futures = [self.submit_request(request) for request in requests]
        responses = []
        for request, future in zip(requests, futures):
            try:
                responses.append(future.result())
            except Exception as error:
                if self._closed.is_set():
                    raise
                fingerprint = self.fingerprint_of(request.graph, request.catalog)
                responses.append(
                    self._degrade(
                        request, fingerprint, time.perf_counter(), error=error
                    )
                )
        return responses

    def fingerprint_of(
        self, graph: QueryGraph, catalog: Catalog | None = None
    ) -> Fingerprint:
        """The fingerprint this service computes for a query."""
        return compute_fingerprint(graph, catalog)

    def cache_key_of(self, request: PlanRequest, fingerprint: Fingerprint) -> str:
        """The full cache key (algorithm-qualified) for a request."""
        return f"{request.algorithm or self._algorithm}:{fingerprint.key}"

    def cache_stats(self) -> CacheStats:
        """Plan-cache counters (aggregate when sharded)."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        """Drop every cached plan, the exact-instance table's included
        (counters are preserved)."""
        self._cache.clear()
        with self._exact_lock:
            self._exact.clear()

    def export_cache(self) -> list[dict]:
        """Snapshot every live cache entry as JSON-ready records.

        Each record carries the algorithm-qualified cache key, the
        rank-ordered plans in :func:`repro.io.plan_to_dict` form, and
        the entry's provenance — exactly what
        :func:`repro.server.persistence.save_cache` writes for
        warm-start. Stale-tier entries and in-flight computations are
        not exported.
        """
        from repro.io import plan_to_dict

        records = []
        for key, entry in self._cache.items():
            records.append(
                {
                    "key": key,
                    "algorithm": entry.algorithm,
                    "optimize_seconds": entry.optimize_seconds,
                    "plans": [
                        plan_to_dict(plan) for plan in entry.canonical_plans
                    ],
                }
            )
        return records

    def import_cache(self, records: "list[dict]") -> int:
        """Rebuild cache entries from :meth:`export_cache` records.

        Malformed records are skipped (a warm-start must never prevent
        boot); returns the number of entries restored.
        """
        from repro.io import SerializationError, plan_from_dict

        restored = 0
        for record in records:
            try:
                key = record["key"]
                plans = tuple(
                    plan_from_dict(plan) for plan in record["plans"]
                )
                if not isinstance(key, str) or ":" not in key or not plans:
                    continue
                entry = _CacheEntry(
                    canonical_plans=plans,
                    algorithm=str(record["algorithm"]),
                    optimize_seconds=float(record["optimize_seconds"]),
                )
            except (KeyError, TypeError, ValueError, SerializationError):
                continue
            self._cache.put(key, entry)
            restored += 1
        return restored

    @property
    def jobs(self) -> int:
        """Worker processes doing enumeration; 1 means in-process."""
        return self._process_pool.jobs if self._process_pool is not None else 1

    @property
    def cache_shards(self) -> int:
        """Lock domains the plan cache is split over."""
        return self._cache.shards

    @property
    def k_best(self) -> int:
        """Ranked plans retained per cache entry."""
        return self._k_best

    @property
    def instrumentation(self) -> Instrumentation:
        """The shared obs context: counters, histograms, span trees."""
        return self._obs

    @property
    def breaker_state(self) -> str:
        """The process-pool circuit breaker's current state."""
        return self._breaker.state

    def snapshot(self) -> dict:
        """Metrics plus cache stats as one JSON-ready dict."""
        stats = self._cache.stats()
        snapshot = self._obs.snapshot(include_spans=False)
        snapshot["cache"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "coalesced": stats.coalesced,
            "evictions": stats.evictions,
            "expirations": stats.expirations,
            "size": stats.size,
            "capacity": stats.capacity,
            "hit_rate": stats.hit_rate,
            "stale_served": stats.stale_served,
            "stale_size": stats.stale_size,
            "shards": [
                {
                    "hits": shard.hits,
                    "misses": shard.misses,
                    "size": shard.size,
                    "evictions": shard.evictions,
                    "expirations": shard.expirations,
                    "stale_size": shard.stale_size,
                }
                for shard in self._cache.shard_stats()
            ],
        }
        snapshot["k_best"] = self._k_best
        snapshot["ladder"] = {
            "degraded_rungs": {
                rung: self._obs.counters.counter(f"degraded_rung_{rung}").value
                for rung in ("rank-2", "lindp", "goo")
            },
        }
        pool = self._process_pool
        snapshot["resilience"] = {
            "breaker_state": self._breaker.state,
            "max_retries": self._retry_policy.max_retries,
            "pool_healthy": pool.healthy if pool is not None else True,
            "pool_faults": pool.fault_count if pool is not None else 0,
            "pool_respawns": pool.respawn_count if pool is not None else 0,
        }
        return snapshot

    def close(self, wait: bool = True) -> None:
        """Refuse new requests and shut every pool down."""
        self._closed.set()
        with self._front_door_lock:
            front_door, self._front_door = self._front_door, None
        if front_door is not None:
            front_door.shutdown(wait=wait)
        self._executor.shutdown(wait=wait)
        if self._process_pool is not None:
            self._process_pool.close(wait=wait)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self._cache.stats()
        return (
            f"PlanService(algorithm={self._algorithm!r}, "
            f"cache={stats.size}/{stats.capacity})"
        )

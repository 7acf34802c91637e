"""A persistent, self-healing process pool for CPU-bound planning work.

Pure-Python enumeration is GIL-bound: the service's thread pool
overlaps waiting, never computing. :class:`PlanningPool` wraps a
:class:`concurrent.futures.ProcessPoolExecutor` so whole queries plan
on worker processes: :meth:`run_query` plans one query in a worker
(what :class:`~repro.service.PlanService` uses for distinct-group
leaders), and :meth:`submit` schedules any picklable callable.

The underlying executor is spawned lazily on first use — a pool that
is constructed but never asked to parallelize costs nothing — and
``jobs=1`` callers are expected to take their in-process path instead
of constructing a pool at all. :meth:`submit` returns a
:class:`concurrent.futures.Future`, which is async-friendly as-is:
``await asyncio.wrap_future(pool.submit(...))`` integrates with an
event loop without any dedicated asyncio surface.

**Fault tolerance.** A worker process can die at any moment (OOM
kill, segfault, operator SIGKILL); ``concurrent.futures`` then raises
:class:`~concurrent.futures.process.BrokenProcessPool` for every
in-flight *and* future submission — the executor is permanently
poisoned. The pool runs a small health state machine around that:

* ``healthy`` — the executor (if spawned) has had no unresolved fault;
* ``faulted`` — a ``BrokenProcessPool`` was observed; the broken
  executor is torn down immediately (``pool.faults`` counted once per
  observer) and the slot cleared;
* back to ``healthy`` — the next submission lazily respawns a fresh
  executor (``pool.respawns`` counted once per actual respawn).

:meth:`run_query` re-runs a query lost to a fault under the pool's
:class:`~repro.parallel.resilience.RetryPolicy` (bounded retries,
exponential backoff with jitter, capped by the remaining request
deadline). When the budget is exhausted it raises
:class:`~repro.errors.PoolBrokenError`, which callers treat as the
signal to degrade to in-process sequential planning — a broken pool
costs throughput, never correctness. The raw :meth:`submit` futures
stay retry-free for callers that manage their own fault policy.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import OptimizerError, PoolBrokenError
from repro.obs.instrumentation import Instrumentation, NULL_INSTRUMENTATION
from repro.parallel.resilience import RetryPolicy
from repro.parallel.worker import WholeQueryOutcome, WholeQueryTask, plan_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog
    from repro.graph.querygraph import QueryGraph

__all__ = ["PlanningPool", "default_jobs"]

_T = TypeVar("_T")


def default_jobs() -> int:
    """The default worker count: every core the host advertises."""
    return max(1, os.cpu_count() or 1)


class PlanningPool:
    """Persistent, lazily-spawned, self-healing pool of planning workers.

    Args:
        jobs: worker process count; defaults to the host core count.
        retry_policy: fault-retry budget for :meth:`run_query`; defaults
            to a stock :class:`~repro.parallel.resilience.RetryPolicy`.
        instrumentation: obs context for ``pool.faults`` /
            ``pool.respawns`` / ``retry.*`` accounting; a disabled
            no-op context when not given.
        rng: jitter source, injectable for deterministic tests.

    The pool is a context manager; :meth:`close` shuts the workers
    down.
    """

    def __init__(
        self,
        jobs: int | None = None,
        retry_policy: RetryPolicy | None = None,
        instrumentation: Instrumentation | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise OptimizerError(f"need at least one worker process, got {jobs}")
        self._jobs = jobs
        self._retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._rng = rng if rng is not None else random.Random()
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._faulted = False
        self._fault_count = 0
        self._respawn_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> int:
        """Configured worker process count."""
        return self._jobs

    @property
    def spawned(self) -> bool:
        """Whether worker processes are currently running."""
        return self._executor is not None

    @property
    def healthy(self) -> bool:
        """Open and not waiting on a respawn after an observed fault."""
        with self._lock:
            return not self._closed and not self._faulted

    @property
    def fault_count(self) -> int:
        """``BrokenProcessPool`` observations so far (one per observer)."""
        with self._lock:
            return self._fault_count

    @property
    def respawn_count(self) -> int:
        """Executors spawned to replace a faulted one."""
        with self._lock:
            return self._respawn_count

    @property
    def retry_policy(self) -> RetryPolicy:
        """The fault-retry budget governing :meth:`run_query`."""
        return self._retry_policy

    # ------------------------------------------------------------------
    # Health state machine
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise OptimizerError("the planning pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self._jobs)
                if self._faulted:
                    # A previous executor died; this spawn is a heal.
                    self._faulted = False
                    self._respawn_count += 1
                    self._obs.count("pool.respawns")
            return self._executor

    def _report_fault(self, executor: ProcessPoolExecutor) -> None:
        """A ``BrokenProcessPool`` was observed on ``executor``.

        Every observer counts a fault (concurrent submitters each see
        the same death), but only the first tears the executor down —
        the next :meth:`_ensure_executor` then respawns lazily.
        """
        with self._lock:
            self._fault_count += 1
            broken = executor if self._executor is executor else None
            if broken is not None:
                # First observer of this executor's death tears it
                # down; a stale report about an already-replaced
                # executor is counted but must not taint the fresh one.
                self._executor = None
                self._faulted = True
        self._obs.count("pool.faults")
        if broken is not None:
            broken.shutdown(wait=False)

    def _backoff(self, attempt: int, deadline_at: float | None) -> bool:
        """Sleep before retry ``attempt``; ``False`` = budget exhausted.

        The sleep is capped by the remaining deadline so a retry loop
        can never push a request past its wall-clock budget; a deadline
        that cannot fit even the capped sleep ends the loop instead.
        """
        if attempt > self._retry_policy.max_retries:
            self._obs.count("retry.exhausted")
            return False
        delay = self._retry_policy.delay_seconds(attempt, self._rng)
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0.0:
                self._obs.count("retry.deadline_exhausted")
                return False
            delay = min(delay, remaining)
        self._obs.count("retry.attempts")
        self._obs.observe("retry.backoff_seconds", delay)
        if delay > 0.0:
            time.sleep(delay)
        return True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, fn: Callable[..., _T], /, *args: object) -> "Future[_T]":
        """Schedule ``fn(*args)`` on a worker process (no fault retry).

        The future still feeds the health state machine: a worker
        death observed through it tears the executor down so the next
        submission respawns, even though this raw path never retries.
        """
        executor = self._ensure_executor()
        future = executor.submit(fn, *args)
        future.add_done_callback(
            lambda finished: self._observe_future(executor, finished)
        )
        return future

    def _observe_future(self, executor: ProcessPoolExecutor, future: Future) -> None:
        """Done-callback of raw submissions: report worker death."""
        if future.cancelled():
            return
        if isinstance(future.exception(), BrokenProcessPool):
            self._report_fault(executor)

    def run_query(
        self,
        graph: "QueryGraph",
        catalog: "Catalog | None",
        algorithm: str,
        *,
        deadline_at: float | None = None,
    ) -> WholeQueryOutcome:
        """Plan one whole query, surviving worker death; blocks until done.

        Returns a :class:`~repro.parallel.worker.WholeQueryOutcome`
        whose ``result`` is a complete
        :class:`~repro.core.base.OptimizationResult` (plan, paper
        counters, timings) in the submitted graph's own numbering.

        Worker faults (``BrokenProcessPool``) tear the executor down,
        respawn it, and re-run the query under the pool's retry policy.
        ``deadline_at`` (a :func:`time.monotonic` instant) bounds the
        *retry* budget — backoff sleeps are capped at the remaining
        time and retrying stops once it runs out; the healthy-path wait
        itself is unbounded, because callers bound their own wait on
        the request future and a late result still warms the cache.

        Raises:
            PoolBrokenError: faults persisted past the retry budget
                (or past ``deadline_at``); degrade to in-process
                planning.
        """
        task = WholeQueryTask(graph=graph, catalog=catalog, algorithm=algorithm)
        attempt = 0
        while True:
            executor = self._ensure_executor()
            try:
                return executor.submit(plan_query, task).result()
            except BrokenProcessPool as error:
                self._report_fault(executor)
                attempt += 1
                if not self._backoff(attempt, deadline_at):
                    raise PoolBrokenError(
                        f"planning pool faulted {attempt} time(s) for one "
                        f"query; retry budget exhausted "
                        f"(max_retries={self._retry_policy.max_retries})"
                    ) from error

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut the worker processes down; idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "PlanningPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "spawned" if self.spawned else "cold"
        return (
            f"PlanningPool(jobs={self._jobs}, {state}, "
            f"faults={self.fault_count}, respawns={self.respawn_count})"
        )

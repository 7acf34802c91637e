"""Worker-process side of the planning pool.

Everything in this module must be importable and picklable from a
fresh interpreter, because it executes inside
:class:`concurrent.futures.ProcessPoolExecutor` workers.
:func:`plan_query` runs a whole sequential optimization for one query
in the worker process and ships the finished
:class:`~repro.core.base.OptimizationResult` back;
:func:`worker_pid` and :func:`crash_worker` are the fault-injection
probes the resilience tests submit.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.core import make_algorithm
from repro.core.base import OptimizationResult
from repro.graph.querygraph import QueryGraph

__all__ = [
    "WholeQueryTask",
    "WholeQueryOutcome",
    "plan_query",
    "worker_pid",
    "crash_worker",
]


@dataclass(frozen=True, slots=True)
class WholeQueryTask:
    """A full optimization to run inside one worker process."""

    graph: QueryGraph
    catalog: object  # repro.catalog.Catalog | None; kept loose for pickling
    algorithm: str


@dataclass(frozen=True, slots=True)
class WholeQueryOutcome:
    """A finished whole-query optimization, shipped back whole."""

    result: OptimizationResult
    cpu_seconds: float


def worker_pid(token: object = None) -> int:
    """Fault-injection probe: report the executing worker's PID.

    ``token`` only defeats executor-side memoization concerns when the
    same probe is submitted repeatedly; it is otherwise ignored. The
    resilience test harness submits this to learn which OS processes
    back the pool before SIGKILLing them mid-flight.
    """
    del token
    return os.getpid()


def crash_worker(signum: int = signal.SIGKILL) -> None:
    """Fault-injection poison task: kill the executing worker process.

    Submitting this simulates an OOM kill / segfault from inside: the
    worker dies without unwinding, the executor observes the death and
    raises ``BrokenProcessPool`` for every in-flight future — exactly
    the failure mode :class:`~repro.parallel.pool.PlanningPool`'s
    health machinery must absorb. Test harness only; never called by
    production paths.
    """
    os.kill(os.getpid(), signum)


def plan_query(task: WholeQueryTask) -> WholeQueryOutcome:
    """Run one whole optimization in this worker; the pool's task body."""
    cpu_started = time.process_time()
    result = make_algorithm(task.algorithm).optimize(
        task.graph, catalog=task.catalog
    )
    return WholeQueryOutcome(
        result=result, cpu_seconds=time.process_time() - cpu_started
    )

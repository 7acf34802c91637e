"""repro.parallel — whole-query planning on a pool of worker processes.

:meth:`PlanningPool.run_query` plans one whole query on a worker
process; :class:`~repro.service.PlanService` uses it (``jobs=N``) to
move distinct-group leader planning off the GIL.

The pool is fault-tolerant: worker death (``BrokenProcessPool``) tears
the executor down, respawns it lazily, and re-runs the lost query
under a bounded :class:`~repro.parallel.resilience.RetryPolicy`;
persistent faults trip a :class:`~repro.parallel.resilience.CircuitBreaker`
and planning degrades transparently to the in-process sequential path
— a broken pool costs throughput, never correctness.

See :mod:`repro.parallel.pool` for the health state machine and
:mod:`repro.parallel.resilience` for the fault-tolerance policies.
"""

from repro.parallel.pool import PlanningPool, default_jobs
from repro.parallel.resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "PlanningPool",
    "CircuitBreaker",
    "RetryPolicy",
    "default_jobs",
]

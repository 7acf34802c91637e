"""Exception hierarchy for the repro join-ordering library.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch a single base class. More specific subclasses exist for
the common failure modes: malformed query graphs, invalid plans, and
misconfigured optimizers or workloads.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "UnknownRelationError",
    "PlanError",
    "CrossProductError",
    "OptimizerError",
    "PoolBrokenError",
    "EmptyQueryError",
    "CatalogError",
    "WorkloadError",
    "ServiceError",
    "LintError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class GraphError(ReproError):
    """A query graph is malformed or an operation on it is invalid."""


class DisconnectedGraphError(GraphError):
    """The query graph is not connected.

    Every algorithm in the paper assumes a connected query graph; a
    disconnected graph would force cross products, which the paper's
    search space explicitly excludes.
    """


class UnknownRelationError(GraphError):
    """A relation name or index does not exist in the graph/catalog."""


class PlanError(ReproError):
    """A join tree violates a structural invariant."""


class CrossProductError(PlanError):
    """A join tree contains a join with no connecting predicate."""


class OptimizerError(ReproError):
    """An optimizer was invoked with invalid inputs or configuration."""


class PoolBrokenError(OptimizerError):
    """The planning process pool faulted and retries were exhausted.

    Raised by :class:`~repro.parallel.pool.PlanningPool` when worker
    death (``BrokenProcessPool``: OOM kill, segfault, SIGKILL) persists
    through the configured retry budget, or when the remaining request
    deadline cannot accommodate another backoff-and-retry cycle.
    Callers treat it as a degradation signal — fall back to in-process
    sequential planning — never as a request failure.
    """


class EmptyQueryError(OptimizerError):
    """An optimizer was asked to order a query with no relations."""


class CatalogError(ReproError):
    """Catalog statistics are missing or inconsistent."""


class WorkloadError(ReproError):
    """A synthetic workload specification is invalid."""


class LintError(ReproError):
    """The static-analysis suite was misconfigured or hit unusable input.

    Raised for unreadable/unparsable source files, malformed baseline
    documents, and invalid rule registrations — never for findings,
    which are reported, not raised.
    """


class ServiceError(ReproError):
    """The plan service was misconfigured or misused.

    Raised for invalid service configuration (unknown algorithm,
    non-positive cache capacity) and for requests submitted to a
    closed service — never for deadline expiry, which degrades to a
    cheaper plan instead of failing.
    """

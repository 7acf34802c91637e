"""Reference escalation-ladder router: the knob-configured dispatcher.

A verbatim copy of :class:`repro.core.adaptive.AdaptiveOptimizer` from
before its seven constructor parameters became module constants, with
its own copies of the routing table. At its defaults the production
router must agree with it on every graph: the same ``graph_class``,
``rung``, ``algorithm`` and ``degradation_path``. Keep it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.core.base import JoinOrderer, OptimizationResult
from repro.core.dpccp import DPccp
from repro.core.dpconv import DPconv
from repro.core.dpsub import DPsub
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.idp import IterativeDP
from repro.core.lindp import LinDP
from repro.cost.base import CostModel
from repro.errors import DisconnectedGraphError
from repro.graph.properties import GraphShape, classify_shape, density
from repro.graph.querygraph import QueryGraph

#: The ladder's rungs, best answer first.
LADDER_RUNGS: tuple[str, ...] = ("exact", "lindp", "idp", "goo")

#: Default exact-DP ceilings per graph class. Chains/cycles have cubic
#: #ccp so exact DP stretches further; stars/trees/general hit the
#: exponential wall earlier (Figure 3's growth rates).
DEFAULT_EXACT_LIMITS: Mapping[str, int] = {
    "chain": 22,
    "cycle": 22,
    "star": 14,
    "tree": 14,
    "general": 13,
}

_CLASS_OF_SHAPE: Mapping[GraphShape, str] = {
    GraphShape.CHAIN: "chain",
    GraphShape.CYCLE: "cycle",
    GraphShape.STAR: "star",
    GraphShape.TREE: "tree",
    GraphShape.CLIQUE: "general",
    GraphShape.GENERAL: "general",
}

#: Classes where IDP's size-k blocks stay polynomial (bounded degree).
_IDP_CLASSES: tuple[str, ...] = ("chain", "cycle")


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """Where the ladder sends one query, and why.

    Attributes:
        graph_class: ``dense``/``chain``/``cycle``/``star``/``tree``/
            ``general`` — the routing-table row.
        n_relations: query size the decision was made for.
        rung: one of :data:`LADDER_RUNGS`.
        algorithm: registry name of the delegate
            (:data:`repro.core.ALGORITHMS` key).
        reason: one human-readable line for logs and the CLI.
    """

    graph_class: str
    n_relations: int
    rung: str
    algorithm: str
    reason: str


class ReferenceAdaptiveOptimizer(JoinOrderer):
    """Routes queries down the exact → LinDP → IDP → GOO ladder.

    Args:
        dense_threshold: edge density at or above which the graph takes
            the routing table's ``dense`` row (DPsub/DPconv on the
            exact rung). The default of 0.9 only triggers on
            (near-)cliques; the documented sentinel 1.1 disables the
            dense row entirely, so cliques route like ``general``
            graphs.
        dense_size_limit: exact-rung ceiling for the dense row; above
            it dense graphs escalate to LinDP (the 2^n side tables and
            3^n inner loop dominate long before the sparse ceilings).
        conv_min_relations: dense graphs with at least this many
            relations (within ``dense_size_limit``) go to DPconv
            instead of DPsub — the measured crossover from
            BENCH_dpconv.json. Set above ``dense_size_limit`` to never
            select DPconv.
        exact_size_limits: per-class overrides of
            :data:`DEFAULT_EXACT_LIMITS` (unknown keys rejected).
        lindp_size_limit: largest n the LinDP rung accepts; its O(n^3)
            interval DP is ~300 ms at n=100 and cubic beyond.
        idp_size_limit: largest n the IDP rung accepts on the
            bounded-degree classes (chain/cycle) where its blocks stay
            polynomial.
        lindp_degrade_limit: largest n for which
            :meth:`degradation_path` still offers LinDP; a degraded
            request runs its fallback synchronously on the caller's
            thread, so the rung must stay sub-second.
    """

    name = "adaptive"

    def __init__(
        self,
        dense_threshold: float = 0.9,
        dense_size_limit: int = 16,
        conv_min_relations: int = 4,
        exact_size_limits: Mapping[str, int] | None = None,
        lindp_size_limit: int = 160,
        idp_size_limit: int = 400,
        lindp_degrade_limit: int = 100,
    ) -> None:
        if not 0.0 < dense_threshold:
            raise ValueError("dense_threshold must be positive")
        if conv_min_relations < 2:
            raise ValueError("conv_min_relations must be >= 2")
        if dense_size_limit < 1:
            raise ValueError("dense_size_limit must be >= 1")
        limits = dict(DEFAULT_EXACT_LIMITS)
        if exact_size_limits is not None:
            unknown = sorted(set(exact_size_limits) - set(limits))
            if unknown:
                raise ValueError(
                    f"unknown graph classes in exact_size_limits: {unknown}; "
                    f"expected a subset of {sorted(limits)}"
                )
            for key, value in exact_size_limits.items():
                if value < 1:
                    raise ValueError(
                        f"exact_size_limits[{key!r}] must be >= 1, got {value}"
                    )
            limits.update(exact_size_limits)
        if lindp_size_limit < 1:
            raise ValueError("lindp_size_limit must be >= 1")
        if idp_size_limit < lindp_size_limit:
            raise ValueError(
                "idp_size_limit must be >= lindp_size_limit — IDP is the "
                "rung *after* LinDP, a lower ceiling would dead-zone sizes"
            )
        if lindp_degrade_limit < 1:
            raise ValueError("lindp_degrade_limit must be >= 1")
        self._dense_threshold = dense_threshold
        self._dense_size_limit = dense_size_limit
        self._conv_min_relations = conv_min_relations
        self._exact_limits = limits
        self._lindp_size_limit = lindp_size_limit
        self._idp_size_limit = idp_size_limit
        self._lindp_degrade_limit = lindp_degrade_limit
        self._delegates: dict[str, JoinOrderer] = {
            "dpccp": DPccp(),
            "dpsub": DPsub(),
            "dpconv": DPconv(),
            "lindp": LinDP(),
            "idp": IterativeDP(),
            "goo": GreedyOperatorOrdering(),
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def graph_class(self, graph: QueryGraph) -> str:
        """The routing-table row for ``graph`` (``dense`` or a shape)."""
        if graph.n_relations >= 2 and density(graph) >= self._dense_threshold:
            return "dense"
        return _CLASS_OF_SHAPE[classify_shape(graph)]

    def route(self, graph: QueryGraph) -> RoutingDecision:
        """Resolve the routing table for ``graph``.

        Raises:
            DisconnectedGraphError: no cross-product-free plan exists,
                so no rung of the ladder applies; surfacing it here
                (rather than from whichever delegate) keeps the error
                independent of the routing outcome.
        """
        if not graph.is_connected:
            raise DisconnectedGraphError(
                "the query graph is disconnected; no rung of the ladder "
                "can produce a cross-product-free join tree"
            )
        n = graph.n_relations
        graph_class = self.graph_class(graph)
        if graph_class == "dense":
            if n <= self._dense_size_limit:
                if n >= self._conv_min_relations:
                    return RoutingDecision(
                        graph_class, n, "exact", "dpconv",
                        f"dense graph within dense_size_limit="
                        f"{self._dense_size_limit}: subset convolution",
                    )
                return RoutingDecision(
                    graph_class, n, "exact", "dpsub",
                    f"dense graph below conv_min_relations="
                    f"{self._conv_min_relations}: paper's dense enumerator",
                )
        elif n <= self._exact_limits[graph_class]:
            return RoutingDecision(
                graph_class, n, "exact", "dpccp",
                f"{graph_class} within exact ceiling "
                f"{self._exact_limits[graph_class]}: exact DP is affordable",
            )
        if n <= self._lindp_size_limit:
            return RoutingDecision(
                graph_class, n, "lindp", "lindp",
                f"past the exact ceiling, within lindp_size_limit="
                f"{self._lindp_size_limit}: linearized DP",
            )
        if graph_class in _IDP_CLASSES and n <= self._idp_size_limit:
            return RoutingDecision(
                graph_class, n, "idp", "idp",
                f"bounded-degree {graph_class} within idp_size_limit="
                f"{self._idp_size_limit}: iterative DP blocks",
            )
        return RoutingDecision(
            graph_class, n, "goo", "goo",
            "beyond every bounded rung: greedy operator ordering",
        )

    def choose(self, graph: QueryGraph) -> JoinOrderer:
        """Return the algorithm instance that :meth:`optimize` would run."""
        return self._delegates[self.route(graph).algorithm]

    def degradation_path(self, graph: QueryGraph) -> tuple[str, ...]:
        """Deadline-safe rungs *below* the routed one, best first.

        What the service runs when a request's deadline expires before
        the routed algorithm answers. LinDP appears only when the query
        was routed to the exact rung (anything routed *at or past*
        LinDP already proved the rung too slow for this deadline) and
        is small enough (``lindp_degrade_limit``) that a synchronous
        run on the caller's thread stays cheap. IDP never appears: it
        is the escalation for *routing*, not a quick answer. The path
        always ends with ``goo``, which is unconditionally safe.
        """
        decision = self.route(graph)
        path: list[str] = []
        if (
            decision.rung == "exact"
            and graph.n_relations <= self._lindp_degrade_limit
        ):
            path.append("lindp")
        path.append("goo")
        return tuple(path)

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------

    def optimize(
        self,
        graph: QueryGraph,
        cost_model: CostModel | None = None,
        catalog: Catalog | None = None,
        instrumentation=None,
        plan_table_factory=None,
    ) -> OptimizationResult:
        """Dispatch to the routed algorithm; result names the delegate.

        The delegate publishes its obs events under its own name
        (``enumerator.DPccp.*``), which is what the paper's per-
        algorithm accounting wants; only the returned result carries
        the combined ``adaptive->`` label. A ``plan_table_factory``
        (the k-best capture hook) is forwarded only when the delegate
        supports in-run capture — DPconv's value-only sweep (and
        LinDP's) would silently miss candidates.
        """
        delegate = self.choose(graph)
        result = delegate.optimize(
            graph,
            cost_model=cost_model,
            catalog=catalog,
            instrumentation=instrumentation,
            plan_table_factory=(
                plan_table_factory if delegate.kbest_capture else None
            ),
        )
        result.algorithm = f"{self.name}->{delegate.name}"
        return result

    def _run(self, graph, cost_model, table, counters) -> None:
        raise AssertionError(
            "AdaptiveOptimizer overrides optimize(); _run is never used"
        )

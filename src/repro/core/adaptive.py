"""Adaptive algorithm selection — the escalation ladder.

The paper's experiments end where its algorithms do: DPccp is "either
the fastest or nearly the fastest algorithm" *within* exact DP's reach,
DPsub/DPconv win on (near-)cliques, and everything stalls near twenty
relations because the number of connected subgraphs explodes. A
production optimizer still has to answer for the 25-relation sparse
query, the 100-relation chain and the 300-relation monster — so this
module routes every query down an explicit **escalation ladder**:

    exact DP  →  LinDP  →  IDP  →  GOO

keyed on the graph's *class* (shape/density) and *size*. Each rung
trades optimality guarantees for asymptotic headroom, and each class
gets its own exact-DP ceiling because the paper's own counter formulas
say the wall arrives at different n per topology (#ccp is cubic on
chains but exponential on stars and cliques).

Routing table (every ceiling is a module constant):

    class    | exact rung            | lindp     | idp      | goo
    ---------+-----------------------+-----------+----------+-------
    chain    | dpccp      n <= 22    | n <= 160  | n <= 400 | beyond
    cycle    | dpccp      n <= 22    | n <= 160  | n <= 400 | beyond
    star     | dpccp      n <= 14    | n <= 160  | —        | beyond
    tree     | dpccp      n <= 14    | n <= 160  | —        | beyond
    general  | dpccp      n <= 13    | n <= 160  | —        | beyond
    dense    | dpsub      n < 4      | n <= 160  | —        | beyond
             | dpconv     n <= 16    |           |          |

Why the gaps: IDP's bounded blocks enumerate every connected subgraph
of size <= k, which is linear-ish on bounded-degree graphs (chains,
cycles) but re-creates the exponential star/clique blowup inside every
block the moment a hub appears — so IDP is only a rung where it is
provably polynomial. Dense graphs keep the paper's DPsub/DPconv story
on the exact rung (density >= :data:`DENSE_THRESHOLD`).

The service's deadline-degradation path uses the same object:
:meth:`AdaptiveOptimizer.degradation_path` lists the rungs *below* the
routed one that are safe to run synchronously on a caller's thread, so
a degraded 60-relation chain answers with LinDP instead of jumping all
the way down to GOO.
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

__all__ = [
    "AdaptiveOptimizer",
    "RoutingDecision",
    "LADDER_RUNGS",
    "DEFAULT_EXACT_LIMITS",
    "DENSE_THRESHOLD",
    "DENSE_SIZE_LIMIT",
    "CONV_MIN_RELATIONS",
    "LINDP_SIZE_LIMIT",
    "IDP_SIZE_LIMIT",
]

#: The ladder's rungs, best answer first.
LADDER_RUNGS: tuple[str, ...] = ("exact", "lindp", "idp", "goo")

#: Exact-DP ceilings per graph class. Chains/cycles have cubic
#: #ccp so exact DP stretches further; stars/trees/general hit the
#: exponential wall earlier (Figure 3's growth rates).
DEFAULT_EXACT_LIMITS: Mapping[str, int] = {
    "chain": 22,
    "cycle": 22,
    "star": 14,
    "tree": 14,
    "general": 13,
}

#: Edge density at or above which a graph takes the ``dense`` row
#: (DPsub/DPconv on the exact rung): only (near-)cliques.
DENSE_THRESHOLD = 0.9

#: Exact-rung ceiling for the dense row; above it dense graphs escalate
#: to LinDP (the 2^n side tables and 3^n inner loop dominate long
#: before the sparse ceilings).
DENSE_SIZE_LIMIT = 16

#: Dense graphs with at least this many relations go to DPconv instead
#: of DPsub: the measured crossover from BENCH_dpconv.json.
CONV_MIN_RELATIONS = 4

#: Largest n the LinDP rung accepts; its O(n^3) interval DP is ~300 ms
#: at n=100 and cubic beyond.
LINDP_SIZE_LIMIT = 160

#: Largest n the IDP rung accepts on the bounded-degree classes
#: (chain/cycle), where its blocks stay polynomial.
IDP_SIZE_LIMIT = 400

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


class AdaptiveOptimizer(JoinOrderer):
    """Routes queries down the exact → LinDP → IDP → GOO ladder.

    The routing table is fixed by this module's constants; an instance
    only holds one delegate per registry name it can route to.
    """

    name = "adaptive"

    def __init__(self) -> None:
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
        if graph.n_relations >= 2 and density(graph) >= DENSE_THRESHOLD:
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
            if n <= DENSE_SIZE_LIMIT:
                if n >= CONV_MIN_RELATIONS:
                    return RoutingDecision(
                        graph_class, n, "exact", "dpconv",
                        f"dense graph within exact ceiling "
                        f"{DENSE_SIZE_LIMIT}: subset convolution",
                    )
                return RoutingDecision(
                    graph_class, n, "exact", "dpsub",
                    f"dense graph below {CONV_MIN_RELATIONS} relations: "
                    "paper's dense enumerator",
                )
        elif n <= DEFAULT_EXACT_LIMITS[graph_class]:
            return RoutingDecision(
                graph_class, n, "exact", "dpccp",
                f"{graph_class} within exact ceiling "
                f"{DEFAULT_EXACT_LIMITS[graph_class]}: exact DP is affordable",
            )
        if n <= LINDP_SIZE_LIMIT:
            return RoutingDecision(
                graph_class, n, "lindp", "lindp",
                f"past the exact ceiling, within LinDP ceiling "
                f"{LINDP_SIZE_LIMIT}: linearized DP",
            )
        if graph_class in _IDP_CLASSES and n <= IDP_SIZE_LIMIT:
            return RoutingDecision(
                graph_class, n, "idp", "idp",
                f"bounded-degree {graph_class} within IDP ceiling "
                f"{IDP_SIZE_LIMIT}: iterative DP blocks",
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
        LinDP already proved the rung too slow for this deadline); the
        exact ceilings keep such queries at 22 relations or fewer, so a
        synchronous LinDP run on the caller's thread stays cheap. IDP
        never appears: it is the escalation for *routing*, not a quick
        answer. The path always ends with ``goo``, which is
        unconditionally safe.
        """
        if self.route(graph).rung == "exact":
            return ("lindp", "goo")
        return ("goo",)

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

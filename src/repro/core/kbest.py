"""K-best join trees per query — ranked plans for degraded serving.

Ranked enumeration of join orders (Tziavelis et al., "Optimal Join
Algorithms Meet Top-k") motivates keeping more than the single optimal
tree per query: a service that caches the k best plans can answer a
deadline-degraded or breaker-open request with the **rank-2 plan it
already has** instead of recomputing a greedy fallback from scratch.

Two capture modes, chosen per algorithm:

* **In-run (heap-pruned) capture** — the bottom-up enumerators whose
  :attr:`~repro.core.base.JoinOrderer.kbest_capture` flag is True route
  *every* candidate plan for the full relation set through the
  ``BestPlan`` table. Injecting a :class:`KBestPlanTable` (via the
  ``plan_table_factory`` hook) observes those candidates and keeps the
  k cheapest in a bounded, deduplicated list — one enumeration, no
  second pass, and losing candidates are only materialized when they
  qualify for the heap.
* **Post-hoc capture** — algorithms that memoize or prune root
  candidates internally (exhaustive's champion memo, top-down
  branch-and-bound, DPconv's value-only sweep) get rank 1 from their
  own run, and ranks 2..k from one additional DPccp capture run over
  the same instance. That pass is an exact enumeration, so it runs
  only where the escalation ladder
  (:meth:`repro.core.adaptive.AdaptiveOptimizer.route`) would run DPccp
  on the graph itself. A dense graph (routed to DPconv or DPsub) or a
  query past its class's exact ceiling keeps rank 1 only.

In both modes **rank 1 is the algorithm's own plan, bit-identical to a
plain ``optimize`` call** — the injected table preserves the base
compare-and-replace semantics exactly, and the tracker is a pure
side-channel. Ranks are sorted by ``(cost, plan fingerprint)``: cost
ascending, ties broken by the canonical structural fingerprint so the
ranking is deterministic across enumeration orders.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable

from repro.catalog.catalog import Catalog
from repro.core.base import JoinOrderer, OptimizationResult, PlanTable
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph
from repro.obs.instrumentation import Instrumentation
from repro.plans.jointree import JoinTree

__all__ = [
    "KBestPlanTable",
    "KBestResult",
    "KBestTracker",
    "k_best_plans",
    "plan_fingerprint",
]

#: Upper bound on k accepted by :func:`k_best_plans`; the tracker is a
#: sorted list, so pathological k would turn every offer into O(k).
MAX_K = 64


def _encode(plan: JoinTree) -> str:
    if plan.is_leaf:
        return f"L{plan.relation_index}"
    assert plan.left is not None and plan.right is not None
    return f"({_encode(plan.left)}{plan.operator}{_encode(plan.right)})"


def plan_fingerprint(plan: JoinTree) -> str:
    """Canonical structural digest of a join tree.

    Encodes the full tree shape — leaf indices, operator labels and
    left/right orientation — but not costs or cardinalities, so two
    structurally identical trees share a fingerprint regardless of the
    float noise in their annotations. Used as the deterministic
    tie-break between equal-cost ranks and for deduplication.
    """
    return hashlib.sha1(_encode(plan).encode("utf-8")).hexdigest()


class KBestTracker:
    """Bounded, deduplicated collection of the k cheapest plans seen.

    A sorted list ordered by ``(cost, fingerprint)`` — for the small k
    this module allows, insertion into a sorted list beats a heap (and
    unlike a heap it is already in rank order when read). ``qualifies``
    is the cheap pre-filter call sites use to skip materializing trees
    that cannot make the cut.
    """

    __slots__ = ("_k", "_entries", "offered", "admitted")

    def __init__(self, k: int) -> None:
        if not 1 <= k <= MAX_K:
            raise OptimizerError(f"k must be in 1..{MAX_K}, got {k}")
        self._k = k
        self._entries: list[tuple[float, str, JoinTree]] = []
        #: Candidates offered / admitted (capture-quality accounting).
        self.offered = 0
        self.admitted = 0

    @property
    def k(self) -> int:
        """The rank bound."""
        return self._k

    def qualifies(self, cost: float) -> bool:
        """Whether a plan of ``cost`` could enter the current top-k."""
        return len(self._entries) < self._k or cost <= self._entries[-1][0]

    def offer(self, plan: JoinTree) -> bool:
        """Insert ``plan`` if it ranks; returns True when admitted.

        Structurally identical plans (same :func:`plan_fingerprint`)
        are kept once. On a full tracker an equal-cost candidate
        displaces the incumbent only when its fingerprint orders
        earlier — the deterministic tie-break.
        """
        self.offered += 1
        cost = plan.cost
        if not self.qualifies(cost):
            return False
        fingerprint = plan_fingerprint(plan)
        if any(entry[1] == fingerprint for entry in self._entries):
            return False
        insort(self._entries, (cost, fingerprint, plan), key=lambda e: e[:2])
        if len(self._entries) > self._k:
            dropped = self._entries.pop()
            if dropped[1] == fingerprint:
                return False
        self.admitted += 1
        return True

    def ranked(self) -> list[JoinTree]:
        """Plans in rank order (cost ascending, fingerprint tie-break)."""
        return [entry[2] for entry in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


class KBestPlanTable(PlanTable):
    """A ``BestPlan`` table that also captures root-set candidates.

    Drop-in replacement injected through ``plan_table_factory``: the
    compare-and-replace semantics (including the keep-the-incumbent
    tie-break and the probe/improvement counters) replicate
    :class:`~repro.core.base.PlanTable` exactly, so the enumeration
    result is bit-identical. The only addition: every candidate priced
    for ``root_mask`` is offered to the tracker, materializing its tree
    only when it could enter the top-k.
    """

    __slots__ = ("_root_mask", "_tracker")

    def __init__(self, root_mask: int, tracker: KBestTracker) -> None:
        super().__init__()
        if root_mask == 0:
            raise OptimizerError("root_mask must cover at least one relation")
        self._root_mask = root_mask
        self._tracker = tracker

    @property
    def tracker(self) -> KBestTracker:
        """The capture sink."""
        return self._tracker

    def register(self, plan: JoinTree) -> bool:
        """Base semantics, plus capture of full-set plans."""
        if plan.relations == self._root_mask:
            self._tracker.offer(plan)
        return super().register(plan)

    def join_step(self, cost_model: CostModel) -> Callable[[int, int], bool]:
        """Always the priced step: the tracker must see every root
        candidate as a tree, which the set-level step never builds."""
        return self._priced_step(cost_model)

    def consider(
        self, cost_model: CostModel, left: JoinTree, right: JoinTree
    ) -> bool:
        """Base semantics, plus capture of full-set candidates.

        Losing candidates for the root set are materialized only when
        the tracker's cheap cost pre-filter says they could rank —
        the "heap-pruned during enumeration" path.
        """
        self.probes += 1
        cardinality, cost, operator = cost_model.price(left, right)
        mask = left.relations | right.relations
        tree: JoinTree | None = None
        if mask == self._root_mask and self._tracker.qualifies(cost):
            tree = JoinTree.join(
                left, right, cardinality=cardinality, cost=cost,
                operator=operator,
            )
            self._tracker.offer(tree)
        incumbent = self.get(mask)
        if incumbent is not None and incumbent.cost <= cost:
            return False
        if tree is None:
            tree = JoinTree.join(
                left, right, cardinality=cardinality, cost=cost,
                operator=operator,
            )
        self.adopt(tree)
        self.improvements += 1
        return True


@dataclass(frozen=True, slots=True)
class KBestResult:
    """Outcome of :func:`k_best_plans`.

    Attributes:
        result: the primary algorithm's unmodified optimization result
            (``result.plan`` is always ``plans[0]``).
        plans: rank-ordered join trees, rank 1 first; between 1 and k
            entries (small queries may not have k structurally distinct
            plans).
        capture: how ranks past 1 were obtained — ``"single"`` (k == 1,
            a one-relation query, or a graph the router does not send
            to DPccp under an algorithm without in-run capture),
            ``"inline"`` (in-run capture) or ``"post-hoc"`` (secondary
            DPccp capture run).
    """

    result: OptimizationResult = field(repr=False)
    plans: tuple[JoinTree, ...] = field(repr=False)
    capture: str = "single"

    @property
    def k_available(self) -> int:
        """Distinct ranked plans actually captured."""
        return len(self.plans)


#: Capture algorithm for the post-hoc pass: DPccp enumerates exactly
#: the csg-cmp-pairs, so its candidate stream for the root set is the
#: complete set of (optimal-subplan) top joins.
_POSTHOC_CAPTURE = "dpccp"


def k_best_plans(
    graph: QueryGraph,
    *,
    k: int,
    algorithm: str = "dpccp",
    cost_model: CostModel | None = None,
    catalog: Catalog | None = None,
    instrumentation: Instrumentation | None = None,
) -> KBestResult:
    """Optimize ``graph`` and return the k best full-query join trees.

    Rank 1 is bit-identical to ``make_algorithm(algorithm).optimize(...)``
    — same tree, same cost, same counters in ``result``. Ranks 2..k are
    the next-cheapest *structurally distinct* top-level candidates
    (each joining two DP-optimal subplans), ordered by
    ``(cost, plan_fingerprint)``.

    Args:
        graph: connected query graph.
        k: maximum ranks to keep (1..:data:`MAX_K`).
        algorithm: registry name of the primary algorithm.
        cost_model / catalog: as for
            :meth:`~repro.core.base.JoinOrderer.optimize`.
        instrumentation: shared obs context; a post-hoc capture run
            publishes its own enumerator events into it like any run.
    """
    from repro.core import make_algorithm
    from repro.core.adaptive import AdaptiveOptimizer

    if not 1 <= k <= MAX_K:
        raise OptimizerError(f"k must be in 1..{MAX_K}, got {k}")
    orderer = make_algorithm(algorithm)
    delegate: JoinOrderer = (
        orderer.choose(graph) if isinstance(orderer, AdaptiveOptimizer)
        else orderer
    )

    def run(
        target: JoinOrderer,
        factory: Callable[[], PlanTable] | None,
    ) -> OptimizationResult:
        return target.optimize(
            graph,
            cost_model=cost_model,
            catalog=catalog,
            instrumentation=instrumentation,
            plan_table_factory=factory,
        )

    if k == 1 or graph.n_relations == 1:
        result = run(orderer, None)
        return KBestResult(result=result, plans=(result.plan,))

    tracker = KBestTracker(k)
    root_mask = graph.all_relations
    factory = lambda: KBestPlanTable(root_mask, tracker)  # noqa: E731
    if delegate.kbest_capture:
        result = run(orderer, factory)
        capture = "inline"
    else:
        result = run(orderer, None)
        # The capture pass is an exact DPccp enumeration: it runs only
        # where the router would run DPccp on this graph itself.
        if AdaptiveOptimizer().route(graph).algorithm != _POSTHOC_CAPTURE:
            return KBestResult(result=result, plans=(result.plan,))
        run(make_algorithm(_POSTHOC_CAPTURE), factory)
        capture = "post-hoc"

    # Rank 1 is the primary run's own plan (the table's tie-breaks,
    # not the tracker's); ranks 2..k are the tracker's remaining
    # candidates, skipping the structural twin of rank 1.
    first_fingerprint = plan_fingerprint(result.plan)
    alternatives = [
        plan
        for plan in tracker.ranked()
        if plan_fingerprint(plan) != first_fingerprint
    ]
    plans = (result.plan, *alternatives[: k - 1])
    return KBestResult(result=result, plans=plans, capture=capture)

"""Shared infrastructure of all join-order optimizers.

This module provides what the paper calls the "common infrastructure
used by all our algorithms": the ``BestPlan`` table, the instrumentation
counters from the pseudocode (``InnerCounter``, ``CsgCmpPairCounter``,
``OnoLohmanCounter``), the result object, and the
:class:`JoinOrderer` base class that validates inputs and dispatches to
the concrete algorithm.

The paper's ``CreateJoinTree``-and-compare step lives in one place,
:meth:`PlanTable.join_step`, and every DP enumerator that visits
csg-cmp pairs calls it once per pair orientation: DPsize, DPsub,
DPccp, IDP-1's bounded passes and the hypergraph DPhyp among them. So
they all pay the same per-pair cost, and only this module knows how a
candidate join is priced and compared. Under a symmetric separable
cost model (C_out) the step works on relation sets: per set it keeps
the cost, the cardinality and the winning left half, and the plan's
trees are built on demand when the table is read. Other models, and
tables that must see every candidate as a tree
(:class:`~repro.core.kbest.KBestPlanTable`), price each candidate.
"""

from __future__ import annotations

import abc
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro import bitset
from repro.catalog.catalog import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutModel
from repro.errors import (
    DisconnectedGraphError,
    EmptyQueryError,
    OptimizerError,
)
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrumentation import Instrumentation

__all__ = ["CounterSet", "PlanTable", "OptimizationResult", "JoinOrderer"]


@dataclass(slots=True)
class CounterSet:
    """The paper's instrumentation counters.

    Attributes:
        inner_counter: executions of the innermost-loop test — the
            paper's measure of algorithmic work ("the real complexity
            is the number of times the code within the inner loop is
            executed").
        csg_cmp_pair_counter: csg-cmp-pairs evaluated, counting both
            orientations (the paper's ``CsgCmpPairCounter``; the same
            for every correct algorithm on a given graph).
        ono_lohman_counter: unordered csg-cmp-pairs,
            ``csg_cmp_pair_counter / 2`` — the Figure 3 ``#ccp`` column
            and the lower bound on ``CreateJoinTree`` calls.
        create_join_tree_calls: actual ``CreateJoinTree`` invocations
            (pricing events; trees are materialized lazily).
        connectivity_check_failures: failures of DPsub's ``(*)``-marked
            outer ``connected(S)`` test; the paper notes this equals
            ``2^n - #csg(n) - 1``. Zero for algorithms without that
            check.
        extra: algorithm-specific counters beyond the paper's set
            (e.g. DPconv's ``lattice_passes``/``convolution_pairs``).
            Published by the obs layer under the same
            ``enumerator.<name>.<key>`` namespace as the core counters;
            empty for the paper's algorithms, so their reports and
            equality comparisons are unchanged.
    """

    inner_counter: int = 0
    csg_cmp_pair_counter: int = 0
    ono_lohman_counter: int = 0
    create_join_tree_calls: int = 0
    connectivity_check_failures: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports (extras merged in, when present)."""
        result = {
            "inner_counter": self.inner_counter,
            "csg_cmp_pair_counter": self.csg_cmp_pair_counter,
            "ono_lohman_counter": self.ono_lohman_counter,
            "create_join_tree_calls": self.create_join_tree_calls,
            "connectivity_check_failures": self.connectivity_check_failures,
        }
        result.update(self.extra)
        return result


class PlanTable:
    """The ``BestPlan`` table: optimal plan per relation set.

    A dict keyed by bitset, with the compare-and-replace step all the
    DP algorithms share: keep a candidate only if the set has no entry
    yet or the candidate is cheaper. Ties keep the incumbent, making
    results deterministic across enumeration orders that produce
    equal-cost plans.

    An entry is held in one of two forms. A *tree entry* is a
    :class:`JoinTree` (leaves, :meth:`register`, :meth:`consider`,
    :meth:`adopt`). A *set entry* is what :meth:`join_step` writes
    under a symmetric separable cost model: the set's cost, its
    estimated cardinality and its winning left half, with no tree.
    :meth:`get` and ``table[mask]`` build a set entry's tree on demand
    from the recorded halves, so a run materializes only the ``n - 1``
    joins of the plan it returns.
    """

    __slots__ = (
        "_costs", "_cardinalities", "_plans", "_splits", "_operator",
        "probes", "improvements",
    )

    def __init__(self) -> None:
        #: cost and cardinality of every entry, tree or set.
        self._costs: dict[int, float] = {}
        self._cardinalities: dict[int, float] = {}
        #: tree entries.
        self._plans: dict[int, JoinTree] = {}
        #: set entries: the winning left half.
        self._splits: dict[int, int] = {}
        #: operator label of set entries' join nodes.
        self._operator = "Join"
        #: register/consider/step calls (cheap plain ints, published to
        #: the obs layer once per run as plan_table_probes/_improvements).
        self.probes = 0
        #: probes that changed the table (new set or cheaper plan).
        self.improvements = 0

    def get(self, mask: int) -> JoinTree | None:
        """Best plan known for ``mask``, or ``None``."""
        plan = self._plans.get(mask)
        if plan is None and mask in self._splits:
            return self._build(mask)
        return plan

    def __getitem__(self, mask: int) -> JoinTree:
        try:
            return self._plans[mask]
        except KeyError:
            if mask in self._splits:
                return self._build(mask)
            raise OptimizerError(
                f"no plan for {bitset.format_bits(mask)}; the enumeration "
                "order violated the dynamic programming precondition"
            ) from None

    def __contains__(self, mask: int) -> bool:
        return mask in self._costs

    def cost(self, mask: int) -> float:
        """Cost of ``mask``'s entry, tree or set, without building a tree."""
        return self._costs[mask]

    def __len__(self) -> int:
        return len(self._costs)

    def register(self, plan: JoinTree) -> bool:
        """Keep ``plan`` if it beats the incumbent for its relation set.

        Returns ``True`` when the table changed.
        """
        self.probes += 1
        incumbent = self._costs.get(plan.relations)
        if incumbent is None or plan.cost < incumbent:
            self.adopt(plan)
            self.improvements += 1
            return True
        return False

    def consider(
        self, cost_model: CostModel, left: JoinTree, right: JoinTree
    ) -> bool:
        """Price ``left ⨝ right`` and keep it only if it wins.

        Equivalent to ``register(cost_model.join(left, right))`` but
        skips tree construction for losing candidates — the lazy
        ``CreateJoinTree`` every production DP optimizer uses. Returns
        ``True`` when the table changed.
        """
        self.probes += 1
        cardinality, cost, operator = cost_model.price(left, right)
        incumbent = self._costs.get(left.relations | right.relations)
        if incumbent is not None and incumbent <= cost:
            return False
        self.adopt(
            JoinTree.join(
                left, right, cardinality=cardinality, cost=cost,
                operator=operator,
            )
        )
        self.improvements += 1
        return True

    def join_step(self, cost_model: CostModel) -> Callable[[int, int], bool]:
        """The paper's ``CreateJoinTree``-and-compare step, on relation sets.

        Returns ``step(left, right)``, which offers ``left ⨝ right`` for
        the set ``left | right`` (both halves must have entries) and
        returns ``True`` when the table changed. It is what every DP
        enumerator calls once per csg-cmp-pair orientation.

        Under a symmetric separable model (C_out) the step never calls
        the model and builds no tree: it compares
        ``(cost(left) + cost(right)) + |left ∪ right|`` with the
        incumbent's cost (``incumbent <= candidate`` keeps the
        incumbent, as :meth:`consider` does) and records the winning
        left half. The cardinality comes from the estimator's
        first-visit memo on the set's first visit, so the numbers equal
        what :meth:`consider` would have priced, bit for bit. Any other
        model gets :meth:`consider` on the two halves' trees.
        """
        if (
            not cost_model.symmetric
            or cost_model.separable_join_operator is None
        ):
            return self._priced_step(cost_model)
        self._operator = cost_model.separable_join_operator
        estimate = cost_model.estimator.split_cardinality
        costs = self._costs
        cardinalities = self._cardinalities
        splits = self._splits
        plans = self._plans
        incumbent_of = costs.get

        def step(left: int, right: int) -> bool:
            self.probes += 1
            mask = left | right
            incumbent = incumbent_of(mask)
            if incumbent is None:
                cardinality = estimate(left, right)
                cardinalities[mask] = cardinality
                costs[mask] = costs[left] + costs[right] + cardinality
                splits[mask] = left
                self.improvements += 1
                return True
            cost = costs[left] + costs[right] + cardinalities[mask]
            if incumbent <= cost:
                return False
            costs[mask] = cost
            splits[mask] = left
            plans.pop(mask, None)
            self.improvements += 1
            return True

        return step

    def _priced_step(self, cost_model: CostModel) -> Callable[[int, int], bool]:
        """:meth:`join_step` for models the set-level step cannot price."""
        consider = self.consider

        def step(left: int, right: int) -> bool:
            return consider(cost_model, self[left], self[right])

        return step

    def _build(self, mask: int) -> JoinTree:
        """Materialize a set entry's tree from the recorded left halves.

        Iterative post-order, so a long chain's plan needs no deep
        recursion; one join node per set entry in the plan.
        """
        splits = self._splits
        built: dict[int, JoinTree] = {}

        def subtree(half: int) -> JoinTree:
            return built[half] if half in splits else self[half]

        pending = [mask]
        while pending:
            top = pending[-1]
            left = splits[top]
            right = top ^ left
            waiting = [
                half for half in (right, left)
                if half in splits and half not in built
            ]
            if waiting:
                pending += waiting
                continue
            pending.pop()
            built[top] = JoinTree.join(
                subtree(left),
                subtree(right),
                cardinality=self._cardinalities[top],
                cost=self._costs[top],
                operator=self._operator,
            )
        return built[mask]

    def adopt(self, plan: JoinTree) -> None:
        """Install ``plan`` as its relation set's entry, unconditionally.

        Used by tables that resolve the compare-and-replace step
        themselves (:class:`~repro.core.kbest.KBestPlanTable` builds the
        tree first to offer it to its tracker); unlike :meth:`register`
        this neither compares against an incumbent nor touches the probe
        counters. The tree replaces a set entry for the same set.
        """
        mask = plan.relations
        self._plans[mask] = plan
        self._costs[mask] = plan.cost
        self._cardinalities[mask] = plan.cardinality
        self._splits.pop(mask, None)

    def masks(self) -> Iterator[int]:
        """All relation sets with a registered plan."""
        return iter(self._costs)


@dataclass(slots=True)
class OptimizationResult:
    """Everything one optimizer run produced.

    Attributes:
        plan: the optimal join tree for all relations.
        counters: instrumentation counters (see :class:`CounterSet`).
        algorithm: name of the algorithm that ran.
        n_relations: query size.
        table_size: number of entries in the final ``BestPlan`` table
            (equals ``#csg`` for the DP algorithms).
        elapsed_seconds: wall-clock optimization time.
        table_probes: plan-table register/consider/step calls during the run.
        table_improvements: probes that changed the table.
    """

    plan: JoinTree
    counters: CounterSet
    algorithm: str
    n_relations: int
    table_size: int
    elapsed_seconds: float
    table_probes: int = 0
    table_improvements: int = 0

    @property
    def cost(self) -> float:
        """Cost of the optimal plan."""
        return self.plan.cost


class JoinOrderer(abc.ABC):
    """Base class of every join-order algorithm in :mod:`repro.core`.

    Subclasses implement :meth:`_run`; this class owns input
    validation, the trivial single-relation case, timing, and default
    cost-model construction, so each algorithm's code is exactly the
    paper's loop structure.
    """

    #: Algorithm name used in results, reports and the CLI.
    name: str = "abstract"

    #: Cross-product-free algorithms require a connected graph; set to
    #: False by algorithms (DPall) whose search space includes cross
    #: products and therefore handles disconnected graphs.
    requires_connected: bool = True

    #: True for bottom-up enumerators that route *every* candidate plan
    #: for the full relation set through ``table.join_step``/``register``
    #: — the precondition for in-run k-best capture via an injected
    #: :class:`~repro.core.kbest.KBestPlanTable`. False for algorithms
    #: that memoize or prune root candidates internally (exhaustive's
    #: champion memo, top-down branch-and-bound, DPconv's value-only
    #: sweep); those get post-hoc capture instead.
    kbest_capture: bool = False

    def optimize(
        self,
        graph: QueryGraph,
        cost_model: CostModel | None = None,
        catalog: Catalog | None = None,
        instrumentation: "Instrumentation | None" = None,
        plan_table_factory: "Callable[[], PlanTable] | None" = None,
    ) -> OptimizationResult:
        """Find the optimal bushy cross-product-free join tree.

        Args:
            graph: a *connected* query graph.
            cost_model: plan-costing strategy; defaults to
                :class:`~repro.cost.cout.CoutModel` over ``catalog``.
            catalog: statistics used only when ``cost_model`` is not
                given.
            instrumentation: optional :class:`repro.obs.Instrumentation`
                context; the run is wrapped in an ``optimize:<name>``
                span and its counters are published once, after the
                enumeration, as ``enumerator.<name>.*`` events. ``None``
                (the default) keeps the uninstrumented fast path: no
                obs call happens anywhere.
            plan_table_factory: optional factory for the ``BestPlan``
                table, letting callers observe the enumeration through
                a :class:`PlanTable` subclass (the k-best capture in
                :mod:`repro.core.kbest`). The injected table MUST
                preserve the base compare-and-replace semantics so the
                returned plan stays bit-identical to an uninstrumented
                run. Ignored for single-relation queries, which never
                build a table.

        Raises:
            EmptyQueryError: zero relations (unreachable via
                :class:`QueryGraph`, kept for defensive clarity).
            DisconnectedGraphError: the graph is not connected, so no
                cross-product-free tree exists.
        """
        if graph.n_relations == 0:
            raise EmptyQueryError("cannot optimize a query with no relations")
        if self.requires_connected and not graph.is_connected:
            raise DisconnectedGraphError(
                "the query graph is disconnected; a bushy tree without "
                "cross products requires a connected graph"
            )
        if cost_model is None:
            cost_model = CoutModel(graph, catalog)
        elif catalog is not None:
            raise OptimizerError(
                "pass either cost_model or catalog, not both; the model "
                "already embeds its statistics"
            )

        counters = CounterSet()
        span_context = (
            instrumentation.span(
                f"optimize:{self.name}",
                algorithm=self.name,
                n_relations=graph.n_relations,
            )
            if instrumentation is not None
            else nullcontext()
        )
        table_probes = 0
        table_improvements = 0
        with span_context:
            started = time.perf_counter()
            if graph.n_relations == 1:
                plan = cost_model.leaf(0)
                table_size = 1
            else:
                table = (
                    plan_table_factory()
                    if plan_table_factory is not None
                    else PlanTable()
                )
                for index in range(graph.n_relations):
                    table.register(cost_model.leaf(index))
                self._run(graph, cost_model, table, counters)
                plan = table[graph.all_relations]
                table_size = len(table)
                table_probes = table.probes
                table_improvements = table.improvements
            elapsed = time.perf_counter() - started
        result = OptimizationResult(
            plan=plan,
            counters=counters,
            algorithm=self.name,
            n_relations=graph.n_relations,
            table_size=table_size,
            elapsed_seconds=elapsed,
            table_probes=table_probes,
            table_improvements=table_improvements,
        )
        if instrumentation is not None:
            instrumentation.record_optimization(result)
        return result

    @abc.abstractmethod
    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        """Fill ``table`` so it holds the optimal plan for all relations.

        ``table`` arrives pre-seeded with all single-relation plans
        (the paper's initialization loop).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

"""Reference copy of DPhyp before it filled a ``PlanTable``.

DPhyp as it was when it kept a ``dict`` table with its own
price-and-compare step and returned a ``HyperOptimizationResult``.
The production :class:`repro.hyper.DPhyp` must reproduce it exactly:
the same plan, cost, counters, table size and table probes.

Verbatim; keep it unchanged.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro import bitset
from repro.catalog.catalog import Catalog
from repro.core.base import CounterSet
from repro.errors import (
    DisconnectedGraphError,
    EmptyQueryError,
    OptimizerError,
)
from repro.hyper.cost import HyperCoutModel
from repro.hyper.hypergraph import Hypergraph
from repro.plans.jointree import JoinTree

__all__ = ["DPhyp", "HyperOptimizationResult"]


@dataclass(slots=True)
class HyperOptimizationResult:
    """Result of a DPhyp run (mirrors OptimizationResult).

    ``table_probes``/``table_improvements`` mirror the simple-graph
    result so :meth:`repro.obs.Instrumentation.record_optimization`
    accepts either; DPhyp's direct-dict table counts its probes as
    ``create_join_tree_calls`` (every emit prices and probes once).
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


class DPhyp:
    """Hypergraph-aware dynamic programming join enumeration."""

    name = "DPhyp"

    def optimize(
        self,
        hypergraph: Hypergraph,
        cost_model: HyperCoutModel | None = None,
        catalog: Catalog | None = None,
        instrumentation=None,
    ) -> HyperOptimizationResult:
        """Find the optimal bushy cross-product-free tree.

        Args:
            instrumentation: optional :class:`repro.obs.Instrumentation`;
                the run is spanned and its counters published as
                ``enumerator.DPhyp.*`` events, exactly like the
                simple-graph enumerators. ``None`` keeps the
                uninstrumented fast path.

        Raises:
            DisconnectedGraphError: the hypergraph is not connected.
        """
        if hypergraph.n_relations == 0:
            raise EmptyQueryError("cannot optimize a query with no relations")
        if not hypergraph.is_connected:
            raise DisconnectedGraphError(
                "the query hypergraph is disconnected; no cross-product-"
                "free join tree exists"
            )
        if cost_model is None:
            cost_model = HyperCoutModel(hypergraph, catalog)

        counters = CounterSet()
        span_context = (
            instrumentation.span(
                f"optimize:{self.name}",
                algorithm=self.name,
                n_relations=hypergraph.n_relations,
            )
            if instrumentation is not None
            else nullcontext()
        )
        with span_context:
            started = time.perf_counter()
            table: dict[int, JoinTree] = {}
            for index in range(hypergraph.n_relations):
                table[bitset.bit(index)] = cost_model.leaf(index)

            if hypergraph.n_relations > 1:
                self._solve(hypergraph, cost_model, table, counters)
            plan = table.get(hypergraph.all_relations)
            if plan is None:
                raise OptimizerError(
                    "no cross-product-free join tree exists: the hypergraph "
                    "is connected only through hyperedges whose sides are "
                    "not themselves joinable"
                )
            counters.csg_cmp_pair_counter = 2 * counters.ono_lohman_counter
            elapsed = time.perf_counter() - started
        result = HyperOptimizationResult(
            plan=plan,
            counters=counters,
            algorithm=self.name,
            n_relations=hypergraph.n_relations,
            table_size=len(table),
            elapsed_seconds=elapsed,
            table_probes=counters.create_join_tree_calls,
        )
        if instrumentation is not None:
            instrumentation.record_optimization(result)
        return result

    # ------------------------------------------------------------------
    # The 2008 paper's Solve / EnumerateCsgRec / EmitCsg / EnumerateCmpRec
    # ------------------------------------------------------------------

    def _solve(
        self,
        hypergraph: Hypergraph,
        cost_model: HyperCoutModel,
        table: dict[int, JoinTree],
        counters: CounterSet,
    ) -> None:
        for index in range(hypergraph.n_relations - 1, -1, -1):
            seed = bitset.bit(index)
            lower_or_equal = (seed << 1) - 1  # B_i
            self._emit_csg(hypergraph, cost_model, table, counters, seed)
            self._enumerate_csg_rec(
                hypergraph, cost_model, table, counters, seed, lower_or_equal
            )

    def _enumerate_csg_rec(
        self,
        hypergraph: Hypergraph,
        cost_model: HyperCoutModel,
        table: dict[int, JoinTree],
        counters: CounterSet,
        subset: int,
        excluded: int,
    ) -> None:
        neighborhood = hypergraph.neighborhood(subset, excluded)
        if neighborhood == 0:
            return
        for grow in bitset.iter_all_subsets(neighborhood):
            grown = subset | grow
            if grown in table:
                self._emit_csg(hypergraph, cost_model, table, counters, grown)
        for grow in bitset.iter_all_subsets(neighborhood):
            self._enumerate_csg_rec(
                hypergraph,
                cost_model,
                table,
                counters,
                subset | grow,
                excluded | neighborhood,
            )

    def _emit_csg(
        self,
        hypergraph: Hypergraph,
        cost_model: HyperCoutModel,
        table: dict[int, JoinTree],
        counters: CounterSet,
        subset: int,
    ) -> None:
        min_mask = subset & -subset
        excluded = ((min_mask << 1) - 1) | subset  # B_min(S1) ∪ S1
        neighborhood = hypergraph.neighborhood(subset, excluded)
        remaining = neighborhood
        while remaining:  # descending representatives
            high = 1 << (remaining.bit_length() - 1)
            remaining ^= high
            if hypergraph.are_connected(subset, high):
                self._emit_pair(cost_model, table, counters, subset, high)
            lower_neighbors = ((high << 1) - 1) & neighborhood  # B_v(N)
            self._enumerate_cmp_rec(
                hypergraph,
                cost_model,
                table,
                counters,
                subset,
                high,
                excluded | lower_neighbors,
            )

    def _enumerate_cmp_rec(
        self,
        hypergraph: Hypergraph,
        cost_model: HyperCoutModel,
        table: dict[int, JoinTree],
        counters: CounterSet,
        first: int,
        second: int,
        excluded: int,
    ) -> None:
        neighborhood = hypergraph.neighborhood(second, excluded)
        if neighborhood == 0:
            return
        for grow in bitset.iter_all_subsets(neighborhood):
            grown = second | grow
            if grown in table and hypergraph.are_connected(first, grown):
                self._emit_pair(cost_model, table, counters, first, grown)
        for grow in bitset.iter_all_subsets(neighborhood):
            self._enumerate_cmp_rec(
                hypergraph,
                cost_model,
                table,
                counters,
                first,
                second | grow,
                excluded | neighborhood,
            )

    def _emit_pair(
        self,
        cost_model: HyperCoutModel,
        table: dict[int, JoinTree],
        counters: CounterSet,
        left: int,
        right: int,
    ) -> None:
        """``EmitCsgCmp``: price both orders, keep the winner."""
        counters.inner_counter += 1
        counters.ono_lohman_counter += 1
        plan_left = table[left]
        plan_right = table[right]
        combined = left | right
        counters.create_join_tree_calls += 1
        cardinality, cost, operator = cost_model.price(plan_left, plan_right)
        incumbent = table.get(combined)
        if incumbent is None or cost < incumbent.cost:
            table[combined] = JoinTree.join(
                plan_left,
                plan_right,
                cardinality=cardinality,
                cost=cost,
                operator=operator,
            )
        if not cost_model.symmetric:
            counters.create_join_tree_calls += 1
            cardinality, cost, operator = cost_model.price(plan_right, plan_left)
            incumbent = table.get(combined)
            if incumbent is None or cost < incumbent.cost:
                table[combined] = JoinTree.join(
                    plan_right,
                    plan_left,
                    cardinality=cardinality,
                    cost=cost,
                    operator=operator,
                )

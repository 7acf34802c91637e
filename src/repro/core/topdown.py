"""Top-down join enumeration with branch-and-bound pruning.

The other enumeration paradigm for this search space (DeHaan & Tompa,
SIGMOD 2007: "Optimal top-down join enumeration"): instead of building
small plans first, *partition* the full relation set recursively. The
top-down direction's unique advantage is **cost bounding** — a
subproblem inherits a budget (the best known full-plan cost minus the
committed remainder), and branches whose lower bound exceeds it are
pruned without being solved, something no bottom-up enumerator can do.

This implementation:

* enumerates exactly the connected complementary partitions per set
  (anchored submask scan, as the exhaustive oracle — generate-and-test
  rather than DeHaan & Tompa's minimal-cut machinery, so the *pairs
  considered* match `ExhaustiveOptimizer` while the *plans priced* are
  cut down by the bound);
* seeds the global upper bound with a GOO plan (one cheap greedy pass);
* memoizes per set both the best plan found and the largest budget the
  set was fully searched under, so bounded results are safely reusable
  (the classic memo discipline for B&B over DP).

Optimality is preserved (tested against the oracle); the pruning
counter shows how much pricing the bound eliminates.
"""

from __future__ import annotations

from repro import bitset
from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.greedy import GreedyOperatorOrdering
from repro.cost.base import CostModel
from repro.cost.cout import CoutModel
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["TopDownBB"]

_INFINITY = float("inf")


class TopDownBB(JoinOrderer):
    """Memoized top-down partition search with cost bounding."""

    name = "TopDownBB"

    def __init__(self) -> None:
        #: Plans pruned by the bound in the last run (diagnostic).
        self.pruned_partitions = 0

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        self.pruned_partitions = 0
        # memo[mask] = (best_plan_or_None, proven_budget): the set was
        # searched exhaustively under `proven_budget`; any plan at
        # least that cheap would have been found.
        memo: dict[int, tuple[JoinTree | None, float]] = {}
        for index in range(graph.n_relations):
            leaf = table[bitset.bit(index)]
            memo[leaf.relations] = (leaf, _INFINITY)

        lower_bound = self._lower_bound_function(cost_model)

        def best(mask: int, budget: float) -> JoinTree | None:
            """Optimal plan for ``mask`` costing < ``budget``, or None."""
            known_plan, proven = memo.get(mask, (None, -1.0))
            if known_plan is not None and known_plan.cost < budget:
                return known_plan
            if proven >= budget:
                return None  # already searched at least this deep
            champion = known_plan
            limit = budget if champion is None else min(budget, champion.cost)
            anchor = mask & -mask
            free = mask ^ anchor
            grow = 0
            while True:
                left = anchor | grow
                right = mask ^ left
                if right:
                    counters.inner_counter += 1
                    if (
                        graph.is_connected_set(left)
                        and graph.is_connected_set(right)
                        and graph.are_connected(left, right)
                    ):
                        counters.ono_lohman_counter += 1
                        counters.csg_cmp_pair_counter += 2
                        candidate = self._solve_partition(
                            left, right, limit, best, cost_model, counters,
                            lower_bound,
                        )
                        if candidate is not None and candidate.cost < limit:
                            champion = candidate
                            limit = candidate.cost
                if grow == free:
                    break
                grow = (grow - free) & free
            memo[mask] = (champion, max(budget, proven))
            return champion if champion is not None and champion.cost < budget else None

        seed_result = GreedyOperatorOrdering().optimize(
            graph, cost_model=cost_model
        )
        table.register(seed_result.plan)
        plan = best(graph.all_relations, seed_result.cost * (1 + 1e-12))
        if plan is not None:
            table.register(plan)

    def _solve_partition(
        self,
        left: int,
        right: int,
        limit: float,
        best,
        cost_model: CostModel,
        counters: CounterSet,
        lower_bound,
    ) -> JoinTree | None:
        """Solve one partition under the remaining budget, or prune."""
        bound = lower_bound(left) + lower_bound(right) + lower_bound(left | right)
        if bound >= limit:
            self.pruned_partitions += 1
            return None
        plan_left = best(left, limit)
        if plan_left is None:
            return None
        plan_right = best(right, limit - plan_left.cost)
        if plan_right is None:
            return None
        counters.create_join_tree_calls += 1
        candidate = cost_model.join(plan_left, plan_right)
        if not cost_model.symmetric:
            counters.create_join_tree_calls += 1
            alternative = cost_model.join(plan_right, plan_left)
            if alternative.cost < candidate.cost:
                candidate = alternative
        return candidate

    @staticmethod
    def _lower_bound_function(cost_model: CostModel):
        """Cost-model-aware lower bound for a relation set's plan cost.

        For C_out, any plan over a non-singleton set pays at least its
        own output cardinality; other models fall back to zero (no
        pruning from the bound, correctness unaffected).
        """
        if isinstance(cost_model, CoutModel):
            estimator = cost_model.estimator

            def bound(mask: int) -> float:
                if bitset.only_bit(mask):
                    return 0.0
                return estimator.set_cardinality(mask)

            return bound
        return lambda mask: 0.0

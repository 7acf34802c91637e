"""GOO — Greedy Operator Ordering (Fegaras 1998), a heuristic baseline.

Not part of the paper, but the standard non-exhaustive baseline: start
with one tree per relation, then repeatedly join the pair of trees whose
(edge-connected) join has the smallest estimated output cardinality,
until one tree remains. Runs in O(n^3) pair tests, each a single
bitset AND against the neighborhood N(T) kept beside every tree.
Produces bushy cross-product-free trees, and is *not* optimal — the
examples use it to show how far greedy plans drift from the DP
optimum.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["GreedyOperatorOrdering"]


class GreedyOperatorOrdering(JoinOrderer):
    """Greedy minimum-intermediate-result join ordering (GOO)."""

    name = "GOO"

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        estimator = cost_model.estimator
        forest: list[JoinTree] = [table[1 << i] for i in range(graph.n_relations)]
        # nbs[i] is N(forest[i]): the relations outside the tree that
        # share an edge with it. The trees are disjoint, so the pair
        # (i, j) is joinable iff nbs[i] & forest[j].relations.
        nbs = [
            mask & ~(1 << i) for i, mask in enumerate(graph.neighbor_masks)
        ]

        while len(forest) > 1:
            best_pair: tuple[int, int] | None = None
            first_pair: tuple[int, int] | None = None
            best_cardinality = float("inf")
            m = len(forest)
            counters.inner_counter += m * (m - 1) // 2
            for i in range(m):
                left = forest[i]
                nb = nbs[i]
                for j in range(i + 1, m):
                    right = forest[j]
                    if not nb & right.relations:
                        continue
                    if first_pair is None:
                        first_pair = (i, j)
                    cardinality = estimator.join_cardinality(left, right)
                    if cardinality < best_cardinality:
                        best_cardinality = cardinality
                        best_pair = (i, j)
            # On large queries every estimate can overflow to inf, and
            # none compares below the initial inf; any connected pair
            # still keeps the plan cross-product-free.
            pair = best_pair or first_pair
            if pair is None:
                # Unreachable for connected graphs (optimize() checks),
                # kept as a defensive invariant.
                raise AssertionError("greedy forest became disconnected")
            i, j = pair
            left, right = forest[i], forest[j]
            counters.create_join_tree_calls += 2
            joined = min(
                cost_model.join(left, right),
                cost_model.join(right, left),
                key=lambda plan: plan.cost,
            )
            counters.ono_lohman_counter += 1
            counters.csg_cmp_pair_counter += 2
            table.register(joined)
            forest[i] = joined
            nbs[i] = (nbs[i] | nbs[j]) & ~joined.relations
            del forest[j]
            del nbs[j]

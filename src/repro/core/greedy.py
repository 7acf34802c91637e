"""GOO — Greedy Operator Ordering (Fegaras 1998), a heuristic baseline.

Not part of the paper, but the standard non-exhaustive baseline: start
with one tree per relation, then repeatedly join the pair of trees whose
(edge-connected) join has the smallest estimated output cardinality,
until one tree remains. Produces bushy cross-product-free trees, and is
*not* optimal — the examples use it to show how far greedy plans drift
from the DP optimum.

Each pair of adjacent trees is estimated once. A heap holds
``(estimate, lower name, higher name)`` for every pair of trees that
share an edge, and a join estimates only the new tree against each
tree adjacent to it. A tree is named by its lowest relation, which
keeps the forest order of a pairwise scan, so ties (and the fallback
to the first connected pair when every estimate overflowed to ``inf``)
resolve as that scan resolves them. That is at most (n - 1)^2
estimates (a clique), n(n - 1)/2 on a star and under 3n on a chain,
against the scan's O(n^3) pair tests. GOO's InnerCounter counts the
tree pairs it estimates.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
        join_cardinality = cost_model.estimator.join_cardinality
        inf = float("inf")

        def estimate(left: JoinTree, right: JoinTree) -> float:
            cardinality = join_cardinality(left, right)
            # An overflowed side times an underflowed selectivity is
            # nan, which never wins a strict comparison: it ranks as inf.
            return cardinality if cardinality <= inf else inf

        n = graph.n_relations
        # trees[x] is the tree named x, i.e. whose lowest relation is x
        # (stale once x joined a lower-named tree), nbs[x] N(trees[x]);
        # owner[r] names the tree that holds relation r.
        trees: list[JoinTree] = [table[1 << i] for i in range(n)]
        nbs = list(graph.neighbor_masks)
        owner = list(range(n))
        # The live estimate per adjacent pair (lower name, higher name);
        # a heap entry whose pair is gone or re-estimated is stale.
        estimates = {
            edge.endpoints: estimate(trees[edge.left], trees[edge.right])
            for edge in graph.edges
        }
        counters.inner_counter += len(estimates)
        heap = [(cardinality, *pair) for pair, cardinality in estimates.items()]
        heapify(heap)

        def adjacent(mask: int) -> list[int]:
            """Names of the trees that hold the relations of ``mask``."""
            names = []
            while mask:
                name = owner[(mask & -mask).bit_length() - 1]
                names.append(name)
                mask &= ~trees[name].relations
            return names

        for _ in range(n - 1):
            # The smallest estimate, ties to the lowest names: the pair
            # a scan in forest order picks. On large queries every
            # estimate can overflow to inf; the first adjacent pair
            # still keeps the plan cross-product-free.
            while True:
                if not heap:
                    # Unreachable for connected graphs (optimize()
                    # checks), kept as a defensive invariant.
                    raise AssertionError("greedy forest became disconnected")
                cardinality, low, high = heappop(heap)
                if estimates.get((low, high)) == cardinality:
                    break
            left, right = trees[low], trees[high]
            counters.create_join_tree_calls += 2
            joined = min(
                cost_model.join(left, right),
                cost_model.join(right, left),
                key=lambda plan: plan.cost,
            )
            counters.ono_lohman_counter += 1
            counters.csg_cmp_pair_counter += 2
            table.register(joined)
            # The pairs of the absorbed tree go; those of tree ``low``
            # are re-estimated below, against the joined tree.
            for name in adjacent(nbs[high]):
                del estimates[(name, high) if name < high else (high, name)]
            merged = right.relations
            while merged:
                bit = merged & -merged
                owner[bit.bit_length() - 1] = low
                merged ^= bit
            trees[low] = joined
            nbs[low] = (nbs[low] | nbs[high]) & ~joined.relations
            names = adjacent(nbs[low])
            counters.inner_counter += len(names)
            for name in names:
                pair = (low, name) if low < name else (name, low)
                cardinality = estimate(trees[pair[0]], trees[pair[1]])
                estimates[pair] = cardinality
                heappush(heap, (cardinality, *pair))

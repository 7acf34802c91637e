"""DPsize — size-driven dynamic programming (paper Figure 1).

The Selinger-style enumeration generalized to bushy trees: construct
optimal plans in order of increasing size ``s``, combining a plan of
size ``s1`` with a plan of size ``s2 = s - s1``. Plans of equal size are
kept in a list so the two innermost loops run over exactly the plans
that exist (i.e. over *connected* sets), and the generate-and-test
checks — disjointness and connectedness between the two sides — run per
candidate pair.

This implements the *optimized* variant the paper's formulas describe
(§2.1 and [Moerkotte, DP-counter analytics, TR 2006]): the left size
only runs to ``⌊s/2⌋``, and for ``s1 == s2`` the partner plan ``p2``
ranges over the plans *after* ``p1`` in the size bucket, halving the
quadratic pairing. Both join orders are costed on success, so the
optimization loses no plans even under asymmetric cost models. With this
loop structure the terminal ``InnerCounter`` matches the paper's
``I_DPsize`` formulas (and Figure 3) exactly.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.graph.querygraph import QueryGraph

__all__ = ["DPsize"]


class DPsize(JoinOrderer):
    """Size-driven DP enumeration of bushy cross-product-free trees."""

    name = "DPsize"
    kbest_capture = True

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        n = graph.n_relations
        # buckets[s] holds the relation sets (not the plans: a set's best
        # plan can improve after the set enters its bucket) of every
        # connected set of size s found so far. Size-1 sets are seeded.
        buckets: list[list[int]] = [[] for _ in range(n + 1)]
        buckets[1] = [1 << index for index in range(n)]

        are_connected = graph.are_connected
        step = table.join_step(cost_model)
        both_orders = not cost_model.symmetric

        for size in range(2, n + 1):
            bucket = buckets[size]
            for left_size in range(1, size // 2 + 1):
                right_size = size - left_size
                left_bucket = buckets[left_size]
                right_bucket = buckets[right_size]
                same_size = left_size == right_size
                for position, left in enumerate(left_bucket):
                    partners = (
                        right_bucket[position + 1 :] if same_size else right_bucket
                    )
                    for right in partners:
                        counters.inner_counter += 1
                        if left & right:
                            continue
                        if not are_connected(left, right):
                            continue
                        counters.ono_lohman_counter += 1
                        counters.csg_cmp_pair_counter += 2
                        combined = left | right
                        is_new = combined not in table
                        counters.create_join_tree_calls += 1
                        step(left, right)
                        if both_orders:
                            counters.create_join_tree_calls += 1
                            step(right, left)
                        if is_new:
                            bucket.append(combined)

"""LeftDeepDP — optimal *left-deep* trees without cross products.

The search-space restriction of the original Selinger optimizer, which
the paper's introduction departs from ("although they restricted the
search space to left-deep trees..."). Dynamic programming over sets
with the last-joined relation as the only degree of freedom:

``best(S) = min over r in S, with S \\ {r} connected and joined to r,
of best(S \\ {r}) ⨝ r``.

O(2^n * n) candidates. Unlike :class:`~repro.core.ikkbz.IKKBZ` (which
is polynomial but needs an acyclic graph and an ASI cost function),
this works for any connected graph and any cost model — it is the
exact optimum of the left-deep space, so the gap to DPccp measures
what bushy trees buy on a given instance.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.dpsub import MAX_RELATIONS
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph

__all__ = ["LeftDeepDP"]


class LeftDeepDP(JoinOrderer):
    """Exact DP over left-deep cross-product-free join trees."""

    name = "LeftDeepDP"
    kbest_capture = True

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        n = graph.n_relations
        if n > MAX_RELATIONS:
            raise OptimizerError(
                f"LeftDeepDP enumerates all 2^{n} subsets; refusing n > "
                f"{MAX_RELATIONS}"
            )
        neighbors = graph.neighbor_masks
        total = 1 << n
        connected = bytearray(total)
        step = table.join_step(cost_model)

        for mask in range(1, total):
            low = mask & -mask
            rest = mask ^ low
            if rest == 0:
                connected[mask] = 1
                continue
            # Lemma-5 recurrence, as in DPsub.
            probe = mask
            is_connected = 0
            while probe:
                vertex = probe & -probe
                probe ^= vertex
                without = mask ^ vertex
                if connected[without] and neighbors[vertex.bit_length() - 1] & without:
                    is_connected = 1
                    break
            connected[mask] = is_connected
            if not is_connected:
                counters.connectivity_check_failures += 1
                continue

            # Try every relation as the last join of a left-deep prefix.
            probe = mask
            while probe:
                vertex = probe & -probe
                probe ^= vertex
                prefix = mask ^ vertex
                counters.inner_counter += 1
                if not connected[prefix]:
                    continue
                if not neighbors[vertex.bit_length() - 1] & prefix:
                    continue
                # Note: these count the pairs the *restricted* space
                # evaluates — a strict subset of the graph's csg-cmp-
                # pairs, so the cross-algorithm #ccp invariant
                # deliberately does not extend to LeftDeepDP.
                counters.csg_cmp_pair_counter += 2
                counters.create_join_tree_calls += 1
                step(prefix, vertex)
        counters.ono_lohman_counter = counters.csg_cmp_pair_counter // 2

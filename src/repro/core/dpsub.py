"""DPsub — subset-driven dynamic programming (paper Figure 2).

Iterates the integers ``1 .. 2^n - 1`` as bitvectors; each integer *is*
a relation set, and ascending order guarantees every subset is handled
before its supersets — the dynamic programming order comes for free from
``+= 1``. For each *connected* set ``S`` (the paper's ``(*)``-marked
check), the inner loop enumerates every non-empty strict subset ``S1``
of ``S`` with the Vance-Maier snippet and tests the csg-cmp-pair
conditions.

Connectedness bookkeeping: the main loop visits every mask in ascending
order anyway, so the ``connected(S)`` test is evaluated once per mask
with an O(|S|) incremental recurrence (a set of size > 1 is connected
iff removing some vertex leaves a connected set adjacent to it — paper
Lemma 5) and memoized in a flat table. The inner loop's
``connected(S1)`` / ``connected(S2)`` tests then are O(1) lookups, and
``S1 connected to S2`` is one AND against the set's accumulated
neighbor mask. This keeps the cost per inner iteration constant, as in
the C++ implementations the paper measured; the *number* of iterations
(``InnerCounter``) is unaffected by the memoization and matches the
paper's ``I_DPsub`` formulas exactly.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph

__all__ = ["DPsub"]

#: DPsub materializes two 2^n-sized side tables (~40 bytes per mask for
#: the neighbor-union ints); n = 22 already costs ~150 MB and hours of
#: loop time, so fail fast with a clear message instead of exhausting
#: memory.
MAX_RELATIONS = 22


class DPsub(JoinOrderer):
    """Subset-driven DP enumeration of bushy cross-product-free trees."""

    name = "DPsub"
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
                f"DPsub enumerates all 2^{n} subsets; refusing n > "
                f"{MAX_RELATIONS} (use DPccp for large sparse queries)"
            )
        neighbors = graph.neighbor_masks  # hot loop: index directly per bit
        total = 1 << n

        # connected[S] and neighbor_union[S] (union of N(v) for v in S,
        # not excluding S) are filled in ascending mask order.
        connected = bytearray(total)
        neighbor_union = [0] * total
        step = table.join_step(cost_model)

        for mask in range(1, total):
            low = mask & -mask
            rest = mask ^ low
            low_neighbors = neighbors[low.bit_length() - 1]
            neighbor_union[mask] = neighbor_union[rest] | low_neighbors
            if rest == 0:
                connected[mask] = 1
                continue
            # Lemma 5 recurrence: connected iff some vertex can be
            # removed leaving a connected set it is adjacent to.
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
                continue  # the paper's (*) check

            # Enumerate all non-empty strict subsets of `mask`
            # (Vance-Maier: S1 = (S1 - S) & S), ascending.
            left = low  # lowest bit is the first non-empty submask
            while left != mask:
                counters.inner_counter += 1
                right = mask ^ left
                # `right` is never empty here (left is strict), matching
                # the pseudocode's dead `if S2 = empty` guard.
                if (
                    connected[left]
                    and connected[right]
                    and neighbor_union[left] & right
                ):
                    counters.csg_cmp_pair_counter += 1
                    counters.create_join_tree_calls += 1
                    step(left, right)
                left = (left - mask) & mask

        counters.ono_lohman_counter = counters.csg_cmp_pair_counter // 2

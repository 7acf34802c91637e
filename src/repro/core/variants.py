"""Pseudocode-literal algorithm variants, for ablation experiments.

The paper analyzes the *optimized* DPsize ("the complexity can be
decreased from s1*s2 to s1*s2/2") and the DPsub variant *with* the
``(*)``-marked outer connectedness check. This module provides the
unoptimized counterparts, so the effect of each optimization can be
measured directly:

* :class:`DPsizeBasic` — Figure 1 exactly as printed: the left size
  runs over the full range ``1 .. s-1`` and equal-size buckets are
  paired quadratically. Its InnerCounter is roughly twice the optimized
  DPsize's (every unordered pair is inspected in both orientations,
  plus the equal-size diagonal).
* :class:`DPsubBasic` — Figure 2 without the outer ``connected(S)``
  filter. Every subset pays its full submask scan, so the InnerCounter
  becomes **graph-independent**: ``3^n - 2^{n+1} + 1`` (each of the
  ``2^n - 1`` subsets S contributes ``2^{|S|} - 2`` strict non-empty
  submasks). Comparing against the filtered DPsub shows exactly what
  the paper's ``(*)`` check buys on sparse graphs — and that it buys
  nothing on cliques, where the two coincide.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.dpsub import MAX_RELATIONS
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph

__all__ = ["DPsizeBasic", "DPsubBasic"]


class DPsizeBasic(JoinOrderer):
    """Figure 1 verbatim: full left-size range, no equal-size halving."""

    name = "DPsize-basic"
    kbest_capture = True

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        n = graph.n_relations
        buckets: list[list[int]] = [[] for _ in range(n + 1)]
        buckets[1] = [1 << index for index in range(n)]

        are_connected = graph.are_connected
        step = table.join_step(cost_model)

        for size in range(2, n + 1):
            bucket = buckets[size]
            for left_size in range(1, size):
                right_size = size - left_size
                for left in buckets[left_size]:
                    for right in buckets[right_size]:
                        counters.inner_counter += 1
                        if left & right:
                            continue
                        if not are_connected(left, right):
                            continue
                        # Each unordered pair arrives in both
                        # orientations; count it once on the canonical
                        # one to keep the shared counter conventions.
                        if left < right:
                            counters.ono_lohman_counter += 1
                        counters.csg_cmp_pair_counter += 1
                        combined = left | right
                        is_new = combined not in table
                        counters.create_join_tree_calls += 1
                        step(left, right)
                        if is_new:
                            bucket.append(combined)


class DPsubBasic(JoinOrderer):
    """Figure 2 without the ``(*)`` outer connectedness filter."""

    name = "DPsub-basic"
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
                f"DPsub-basic enumerates all 2^{n} subsets; refusing n > "
                f"{MAX_RELATIONS}"
            )
        neighbors = graph.neighbor_masks
        total = 1 << n
        connected = bytearray(total)
        neighbor_union = [0] * total
        step = table.join_step(cost_model)

        for mask in range(1, total):
            low = mask & -mask
            rest = mask ^ low
            neighbor_union[mask] = (
                neighbor_union[rest] | neighbors[low.bit_length() - 1]
            )
            if rest == 0:
                connected[mask] = 1
                continue
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

            # No (*) check: scan submasks even for disconnected S.
            left = low
            while left != mask:
                counters.inner_counter += 1
                right = mask ^ left
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

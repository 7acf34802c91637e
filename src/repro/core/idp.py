"""IDP-1 — Iterative Dynamic Programming (Kossmann & Stocker 2000).

The paper's introduction cites iterative dynamic programming as the
main line of research built on these DP enumerators (its reference
[3]). IDP-1 makes join ordering feasible for queries too large for
exact DP: repeatedly run *bounded* dynamic programming that only builds
plans up to ``k`` relations, commit the cheapest size-``k`` block as a
single compound node (contracting the query graph around it), and
iterate until the remaining problem fits in one exact DP pass.

Properties:

* ``k >= n`` degenerates to exact DPccp (tested);
* any ``k >= 2`` yields a valid cross-product-free bushy tree whose
  cost is lower-bounded by the true optimum;
* per-iteration work is bounded by the size-``k`` slice of the
  csg-cmp-pairs, so cliques far beyond exact-DP reach become tractable;
* plan quality is *not* monotone in ``k``: committing the cheapest
  ``k``-block greedily can lock in a poor global choice, which is why
  Kossmann & Stocker study several block-selection policies (this
  implements their "standard-best-plan"; equal-cost blocks go to the
  lowest relation mask).

Implementation notes: the *working graph* (with blocks contracted to
single nodes) drives only the enumeration — connectivity and the
csg-cmp-pair stream. Each iteration runs DPccp's pair pass
(:func:`repro.core.dpccp._pair_pass`) on it, capped at the block size,
into one :class:`~repro.core.base.PlanTable` kept across iterations;
the pass translates each working set to the original relations it
stands for. So all plans stay in original-query space, priced and
compared by the table's one join step
(:meth:`~repro.core.base.PlanTable.join_step`) under the caller's cost
model, costs and cardinalities never need translation, and any cost
model works unchanged. Under C_out the step builds no trees: only the
committed blocks' joins and the final plan's are built.

Committing a block drops every table entry that meets it and installs
the block's plan as the compound node's, which the contraction numbers
0. Every connected set without node 0 is then still in the table, with
the plan the same pairs gave it before, so each later iteration offers
only the pairs whose union holds node 0 — DPccp's slice from start
node 0. IDP-1's InnerCounter counts the pairs offered: 6,570 over the
34 iterations of ``k = 7`` on the 200-relation foreign-key chain of
the kernel tests, where re-running every pair of every iteration
offered 69,070.
"""

from __future__ import annotations

from repro import bitset
from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.dpccp import _pair_pass
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import JoinEdge, QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["IterativeDP"]


class IterativeDP(JoinOrderer):
    """IDP-1 with the standard-best-plan block selection policy.

    Args:
        k: block size — the largest relation set exact DP builds per
            iteration. Larger k means better plans and more work;
            ``k >= n`` is exact optimization.
    """

    name = "IDP-1"

    def __init__(self, k: int = 7) -> None:
        if k < 2:
            raise OptimizerError(f"IDP block size must be >= 2, got {k}")
        self._k = k

    @property
    def k(self) -> int:
        """The block size."""
        return self._k

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        working_graph = graph
        # node_plans[i]: the committed (original-space) subplan that
        # working node i stands for. Initially the base relations.
        node_plans: list[JoinTree] = [
            table[bitset.bit(index)] for index in range(graph.n_relations)
        ]
        # One table for every pass, in original space: the best plan of
        # every connected set of at most k working nodes, seeded with
        # the nodes' committed plans.
        blocks = PlanTable()
        for plan in node_plans:
            blocks.adopt(plan)
        contracted = False

        while True:
            n = working_graph.n_relations
            block_size = min(self._k, n)
            # Bounded DP over the working graph, in original space, by
            # DPccp's pair pass up to block_size working nodes. After a
            # contraction only the sets that hold the compound node
            # (node 0) are new: the others are still in the table.
            _pair_pass(
                working_graph,
                [plan.relations for plan in node_plans],
                blocks,
                cost_model,
                counters,
                max_union_size=block_size,
                first_node_only=contracted,
            )
            if n <= self._k:
                table.register(blocks[graph.all_relations])
                return
            # One relation per working node: an entry's node count is
            # how many of them it holds. Equal costs go to the lowest
            # relation mask.
            representatives = 0
            for plan in node_plans:
                representatives |= plan.relations & -plan.relations
            best = min(
                (
                    mask
                    for mask in blocks.masks()
                    if (mask & representatives).bit_count() == block_size
                ),
                key=lambda mask: (blocks.cost(mask), mask),
            )
            block = blocks[best]
            # The block's nodes become one: every entry that meets it
            # is gone, and the block is the compound node's plan.
            blocks.drop_overlapping(best)
            blocks.adopt(block)
            block_nodes = 0
            for node, plan in enumerate(node_plans):
                if plan.relations & best:
                    block_nodes |= bitset.bit(node)
            working_graph, node_plans = self._contract(
                working_graph, node_plans, block_nodes, block
            )
            contracted = True

    # ------------------------------------------------------------------
    # Graph contraction around a committed block
    # ------------------------------------------------------------------

    @staticmethod
    def _contract(
        graph: QueryGraph,
        node_plans: list[JoinTree],
        block_mask: int,
        block: JoinTree,
    ) -> tuple[QueryGraph, list[JoinTree]]:
        """Replace the block's working nodes by one compound node.

        The compound node is numbered 0 and the kept nodes follow in
        their old order. Only connectivity matters for the contracted
        graph (plans are priced in original space); parallel edges to
        the same outside node merge with product selectivity to keep
        the graph simple.
        """
        keep = [
            index
            for index in range(graph.n_relations)
            if not block_mask & bitset.bit(index)
        ]
        new_index_of = {old: new for new, old in enumerate(keep, start=1)}
        compound_index = 0

        merged_selectivity: dict[int, float] = {}
        new_edges: list[JoinEdge] = []
        for edge in graph.edges:
            left_in = bool(block_mask & bitset.bit(edge.left))
            right_in = bool(block_mask & bitset.bit(edge.right))
            if left_in and right_in:
                continue  # internal to the block: already joined
            if not left_in and not right_in:
                new_edges.append(
                    JoinEdge(
                        new_index_of[edge.left],
                        new_index_of[edge.right],
                        edge.selectivity,
                        edge.predicate,
                    )
                )
                continue
            outside = edge.right if left_in else edge.left
            target = new_index_of[outside]
            merged_selectivity[target] = (
                merged_selectivity.get(target, 1.0) * edge.selectivity
            )
        for target, selectivity in sorted(merged_selectivity.items()):
            new_edges.append(
                JoinEdge(compound_index, target, max(selectivity, 1e-300))
            )

        names = [graph.name_of(old) for old in keep]
        compound_name = f"block@{block.relations:x}"
        new_graph = QueryGraph(
            len(keep) + 1, new_edges, names=[compound_name, *names]
        )
        new_plans = [block] + [node_plans[old] for old in keep]
        return new_graph, new_plans


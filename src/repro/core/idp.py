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
  implements their "standard-best-plan").

Implementation notes: the *working graph* (with blocks contracted to
single nodes) drives only the enumeration — connectivity and the
csg-cmp-pair stream. All plans stay in original-query space, priced by
the caller's cost model, so costs and cardinalities never need
translation and any cost model works unchanged.
"""

from __future__ import annotations

from repro import bitset
from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import JoinEdge, QueryGraph
from repro.graph.subgraphs import enumerate_csg_cmp_pairs
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

        while True:
            n = working_graph.n_relations
            block_size = min(self._k, n)
            blocks = self._bounded_dp(
                working_graph, cost_model, node_plans, counters, block_size
            )
            if n <= self._k:
                table.register(blocks[working_graph.all_relations])
                return
            best_mask, best_block = min(
                (
                    (mask, plan)
                    for mask, plan in blocks.items()
                    if bitset.popcount(mask) == block_size
                ),
                key=lambda entry: entry[1].cost,
            )
            working_graph, node_plans = self._contract(
                working_graph, node_plans, best_mask, best_block
            )

    # ------------------------------------------------------------------
    # Bounded DP over the working graph
    # ------------------------------------------------------------------

    @staticmethod
    def _bounded_dp(
        graph: QueryGraph,
        model: CostModel,
        node_plans: list[JoinTree],
        counters: CounterSet,
        cap: int,
    ) -> dict[int, JoinTree]:
        """Best plan per connected working set of at most ``cap`` nodes.

        Keys are working-node bitsets; values are original-space trees
        (the leaves of working nodes are their committed subplans), so
        pricing happens directly with the caller's cost model. The
        enumeration keys plans by BFS-numbered masks; the table is
        translated to working masks once, in insertion order, so the
        caller's ``min`` over blocks still breaks ties by the first
        block the enumeration reached. Each orientation is priced
        without building a tree, and a tree is built only when it beats
        the incumbent.
        """
        if graph.is_bfs_numbered():
            numbered, order = graph, list(range(graph.n_relations))
        else:
            numbered, order = graph.bfs_renumbered()
        bit_map = [bitset.bit(old) for old in order]

        plans: dict[int, JoinTree] = {
            bitset.bit(position): node_plans[old]
            for position, old in enumerate(order)
        }

        symmetric = model.symmetric
        price = model.price
        join = JoinTree.join
        for left, right in enumerate_csg_cmp_pairs(
            numbered, trust_numbering=True, max_union_size=cap
        ):
            counters.inner_counter += 1
            counters.ono_lohman_counter += 1
            counters.csg_cmp_pair_counter += 2
            plan_left = plans[left]
            plan_right = plans[right]
            combined = left | right
            incumbent = plans.get(combined)
            counters.create_join_tree_calls += 1
            cardinality, cost, operator = price(plan_left, plan_right)
            if incumbent is None or cost < incumbent.cost:
                incumbent = join(plan_left, plan_right, cardinality, cost, operator)
                plans[combined] = incumbent
            if not symmetric:
                counters.create_join_tree_calls += 1
                cardinality, cost, operator = price(plan_right, plan_left)
                if cost < incumbent.cost:
                    plans[combined] = join(
                        plan_right, plan_left, cardinality, cost, operator
                    )
        return {_translate(mask, bit_map): plan for mask, plan in plans.items()}

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

        Only connectivity matters for the contracted graph (plans are
        priced in original space); parallel edges to the same outside
        node merge with product selectivity to keep the graph simple.
        """
        keep = [
            index
            for index in range(graph.n_relations)
            if not block_mask & bitset.bit(index)
        ]
        new_index_of = {old: new for new, old in enumerate(keep)}
        compound_index = len(keep)

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
            len(keep) + 1, new_edges, names=[*names, compound_name]
        )
        new_plans = [node_plans[old] for old in keep] + [block]
        return new_graph, new_plans


def _translate(mask: int, bit_map: list[int]) -> int:
    result = 0
    while mask:
        low = mask & -mask
        result |= bit_map[low.bit_length() - 1]
        mask ^= low
    return result

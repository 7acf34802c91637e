"""IKKBZ — optimal left-deep ordering for acyclic graphs (baseline).

Ibaraki & Kameda (1984) and Krishnamurthy, Boral & Zaniolo (1986):
for *acyclic* query graphs and cost functions with the ASI (adjacent
sequence interchange) property — which C_out has — the optimal
left-deep join order can be found in polynomial time by sorting
precedence-tree chains by *rank* and merging rank-violating adjacent
nodes into compound modules.

This is not part of the paper, but it is the classical polynomial
baseline the DP literature measures against, and it bounds what a
left-deep-only optimizer can achieve versus the paper's bushy planners.

Scope: requires a tree-shaped (acyclic, connected) query graph and is
guaranteed optimal among left-deep plans only under an ASI cost
function such as :class:`~repro.cost.cout.CoutModel`. Cyclic graphs are
rejected; the usual production workaround (run on a minimum spanning
tree) is out of scope here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.cost.cardinality import CardinalityEstimator
from repro.errors import OptimizerError
from repro.graph.properties import is_tree
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["IKKBZ", "ikkbz_order_for_root"]


@dataclass(slots=True)
class _Module:
    """A maximal run of relations committed to appear consecutively.

    ``t`` is the multiplicative size factor (product of ``s_i * n_i``),
    ``c`` the additive ASI cost of the run, and ``rank`` the ASI rank
    the chains are ordered by, computed once at construction.
    """

    indices: list[int]
    t: float
    c: float
    rank: float = field(init=False)

    def __post_init__(self) -> None:
        """Set the ASI rank ``(T - 1) / C``.

        Zero-cost modules (``C == 0``) have no finite ratio; the
        standard treatment orders them by the sign of ``T - 1``, the
        limit of ``(T - 1) / C`` as ``C -> 0+``: a free module that
        *shrinks* the intermediate result (``T < 1``) belongs as early
        as possible, one that *grows* it (``T > 1``) as late as
        possible, and a size-neutral one is indifferent. Returning
        ``-inf`` unconditionally (the old behaviour) let free growing
        modules jump the queue and mis-linearize plans with free
        predicates.
        """
        if self.c == 0:
            if self.t > 1.0:
                self.rank = float("inf")
            elif self.t < 1.0:
                self.rank = float("-inf")
            else:
                self.rank = 0.0
        else:
            self.rank = (self.t - 1.0) / self.c

    def fuse(self, successor: "_Module") -> "_Module":
        """Combine with a module that must directly follow this one."""
        return _Module(
            indices=self.indices + successor.indices,
            t=self.t * successor.t,
            c=self.c + self.t * successor.c,
        )


def _normalize(chain: list[_Module]) -> list[_Module]:
    """Fuse adjacent modules until ranks ascend along the chain."""
    stack: list[_Module] = []
    for module in chain:
        stack.append(module)
        while len(stack) >= 2 and stack[-2].rank > stack[-1].rank:
            successor = stack.pop()
            stack[-1] = stack[-1].fuse(successor)
    return stack


def _merge_by_rank(chains: list[list[_Module]]) -> list[_Module]:
    """Merge rank-ascending chains into one rank-ascending chain."""
    if len(chains) == 1:
        # A one-chain merge is the identity; skip the heap.
        return chains[0]
    heap: list[tuple[float, int, int]] = []
    for chain_id, chain in enumerate(chains):
        if chain:
            heapq.heappush(heap, (chain[0].rank, chain_id, 0))
    merged: list[_Module] = []
    while heap:
        _rank, chain_id, position = heapq.heappop(heap)
        merged.append(chains[chain_id][position])
        if position + 1 < len(chains[chain_id]):
            nxt = chains[chain_id][position + 1]
            heapq.heappush(heap, (nxt.rank, chain_id, position + 1))
    return merged


def ikkbz_order_for_root(
    graph: QueryGraph,
    estimator: CardinalityEstimator,
    root: int,
    counters: CounterSet | None = None,
) -> list[int]:
    """Rank-optimal relation sequence starting at ``root`` (ASI ranks).

    The reusable half of IKKBZ: orient the (tree-shaped) query graph at
    ``root``, normalize each precedence chain until ranks ascend, and
    merge the chains by rank. :class:`IKKBZ` turns the sequence into a
    left-deep plan; :class:`~repro.core.lindp.LinDP` reuses it as a
    *linearization* for its contiguous-interval DP. The caller is
    responsible for the tree-shape precondition.
    """
    if counters is None:
        counters = CounterSet()
    children: list[list[int]] = [[] for _ in range(graph.n_relations)]
    parent_edge_selectivity = [1.0] * graph.n_relations
    order = graph.bfs_order(root)
    placed = {root}
    for node in order[1:]:
        for edge in graph.edges_of(node):
            other = edge.right if edge.left == node else edge.left
            if other in placed:
                children[other].append(node)
                parent_edge_selectivity[node] = edge.selectivity
                break
        placed.add(node)

    def chain_below(node: int) -> list[_Module]:
        """Normalized rank-ascending chain for the subtree below ``node``."""
        child_chains = []
        for child in children[node]:
            counters.inner_counter += 1
            t = parent_edge_selectivity[child] * estimator.base_cardinality(
                child
            )
            head = _Module([child], t=t, c=t)
            child_chains.append(_normalize([head] + chain_below(child)))
        return _merge_by_rank(child_chains)

    sequence = [root]
    for module in chain_below(root):
        sequence.extend(module.indices)
    return sequence


class IKKBZ(JoinOrderer):
    """Polynomial-time optimal left-deep planner for acyclic graphs."""

    name = "IKKBZ"

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        if not is_tree(graph):
            raise OptimizerError(
                "IKKBZ requires an acyclic (tree) query graph; got a "
                "graph with cycles — use one of the DP algorithms"
            )
        estimator = cost_model.estimator
        best_plan: JoinTree | None = None
        for root in range(graph.n_relations):
            order = self._order_for_root(graph, estimator, root, counters)
            plan = table[1 << order[0]]
            for index in order[1:]:
                counters.create_join_tree_calls += 1
                plan = cost_model.join(plan, table[1 << index])
            if best_plan is None or plan.cost < best_plan.cost:
                best_plan = plan
        assert best_plan is not None
        table.register(best_plan)

    def _order_for_root(
        self,
        graph: QueryGraph,
        estimator: CardinalityEstimator,
        root: int,
        counters: CounterSet,
    ) -> list[int]:
        """Optimal relation sequence starting at ``root`` (ASI ranks)."""
        return ikkbz_order_for_root(graph, estimator, root, counters)

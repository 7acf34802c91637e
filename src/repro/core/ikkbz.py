"""IKKBZ — optimal left-deep ordering for acyclic graphs (baseline).

Ibaraki & Kameda (1984) and Krishnamurthy, Boral & Zaniolo (1986):
for *acyclic* query graphs and cost functions with the ASI (adjacent
sequence interchange) property — which C_out has — the optimal
left-deep join order can be found in polynomial time by sorting
precedence-tree chains by *rank* and merging rank-violating adjacent
nodes into compound modules. Every relation is tried as the root;
:func:`ikkbz_orders` builds all n orderings in one pass, because the
normalized chain of a subtree depends only on the edge it is entered
by, not on the root.

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

__all__ = ["IKKBZ", "ikkbz_orders"]


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


def ikkbz_orders(
    graph: QueryGraph,
    estimator: CardinalityEstimator,
    counters: CounterSet | None = None,
) -> list[list[int]]:
    """Rank-optimal relation sequence for every root, indexed by root.

    The reusable half of IKKBZ. Rooted at ``r``, the (tree-shaped)
    query graph is a precedence tree: each subtree is normalized into a
    chain whose ranks ascend, and the children's chains are merged by
    rank. :class:`IKKBZ` turns each sequence into a left-deep plan;
    :class:`~repro.core.lindp.LinDP` reuses them as *linearizations*
    for its contiguous-interval DP. The caller is responsible for the
    tree-shape precondition.

    The normalized chain of the subtree entered over the edge
    ``p -> c`` does not depend on the root, so each of the ``2(n - 1)``
    directed edges is normalized once and shared by every root that
    enters ``c`` from ``p``: O(n^2 log n) for all roots, not one
    O(n^2) pass per root. Children are taken in ascending index order,
    as a breadth-first search from any root discovers them, and each
    root still adds its ``n - 1`` child steps to ``inner_counter``.
    """
    if counters is None:
        counters = CounterSet()
    n = graph.n_relations
    base = [estimator.base_cardinality(index) for index in range(n)]
    # adjacent[v]: (neighbor, selectivity) pairs; graph.edges is sorted
    # by endpoints, so each list ascends by neighbor.
    adjacent: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for edge in graph.edges:
        adjacent[edge.left].append((edge.right, edge.selectivity))
        adjacent[edge.right].append((edge.left, edge.selectivity))
    # Breadth-first from node 0 with parent links, without recursion.
    order = [0]
    parent = [-1] * n
    parent_selectivity = [1.0] * n
    seen = 1
    for node in order:
        for other, selectivity in adjacent[node]:
            if not seen >> other & 1:
                seen |= 1 << other
                parent[other] = node
                parent_selectivity[other] = selectivity
                order.append(other)
    # chains[p, c]: normalized chain of c's subtree entered from p. A
    # chain needs the chains of every edge leaving c except (c, p):
    # edges away from node 0 are built leaves first, then edges towards
    # it root first.
    directed = [
        (parent[node], node, parent_selectivity[node])
        for node in reversed(order[1:])
    ]
    directed += [
        (node, parent[node], parent_selectivity[node]) for node in order[1:]
    ]
    chains: dict[tuple[int, int], list[_Module]] = {}
    for above, node, selectivity in directed:
        t = selectivity * base[node]
        below = _merge_by_rank(
            [chains[node, child] for child, _ in adjacent[node] if child != above]
        )
        chains[above, node] = _normalize([_Module([node], t=t, c=t)] + below)
    orders = []
    for root in range(n):
        counters.inner_counter += n - 1
        sequence = [root]
        for module in _merge_by_rank(
            [chains[root, child] for child, _ in adjacent[root]]
        ):
            sequence.extend(module.indices)
        orders.append(sequence)
    return orders


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
        best_plan: JoinTree | None = None
        for order in ikkbz_orders(graph, cost_model.estimator, counters):
            plan = table[1 << order[0]]
            for index in order[1:]:
                counters.create_join_tree_calls += 1
                plan = cost_model.join(plan, table[1 << index])
            if best_plan is None or plan.cost < best_plan.cost:
                best_plan = plan
        assert best_plan is not None
        table.register(best_plan)

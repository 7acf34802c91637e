"""DPccp — the paper's new algorithm (Figure 4).

DPccp iterates *exactly* the csg-cmp-pairs of the query graph: for
every connected set ``S1`` (the paper's ``EnumerateCsg``), every
complement ``S2`` (``EnumerateCmp``), as
:func:`~repro.graph.subgraphs.enumerate_csg_cmp_lists` groups them, in
an order valid for dynamic programming. So its ``InnerCounter`` equals
the Ono-Lohman lower bound: every innermost-loop execution performs
useful work. Per pair it offers both join orders to the table's
set-level step (:meth:`~repro.core.base.PlanTable.join_step`) when the
cost model is asymmetric, one when it is symmetric (the enumeration
emits each unordered pair in a single orientation, so commutativity
must be handled here — paper §3.1: "the algorithm explicitly exploits
join commutativity"). Under C_out that step compares costs of relation
sets and builds no tree; only the returned plan's ``n - 1`` joins are
built.

The enumeration requires the graph to be numbered breadth-first from
node 0 (paper §3.4.1). This class establishes that precondition
transparently: if the input graph is not BFS-numbered, the *enumeration*
runs on a renumbered twin and every emitted set is translated back to
the original numbering, once per set, before touching the plan table,
so plans, costs and relation names all stay in the caller's index
space.

The loop itself, :func:`_pair_pass`, is shared with IDP-1
(:mod:`repro.core.idp`): its bounded passes run it with a cap on the
pair's size and a translation from each working node to the relations
of the block it stands for.
"""

from __future__ import annotations

from repro import bitset
from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.graph.querygraph import QueryGraph
from repro.graph.subgraphs import enumerate_csg_cmp_lists

__all__ = ["DPccp"]


class DPccp(JoinOrderer):
    """Csg-cmp-pair-driven DP enumeration — adapts to any graph shape."""

    name = "DPccp"
    kbest_capture = True

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        _pair_pass(
            graph, [bitset.bit(index) for index in range(graph.n_relations)],
            table, cost_model, counters,
        )


def _pair_pass(
    graph: QueryGraph,
    bit_map: list[int],
    table: PlanTable,
    cost_model: CostModel,
    counters: CounterSet,
    max_union_size: int | None = None,
    first_node_only: bool = False,
) -> None:
    """Offer every csg-cmp-pair of ``graph`` to ``table``'s join step.

    ``bit_map[i]`` is the relation set, in the table's numbering, that
    node ``i`` of ``graph`` stands for: relation ``i`` for DPccp, a
    committed block's relations for IDP-1. Each pair is offered in both
    orders under an asymmetric model, in one under a symmetric one, and
    counted. ``max_union_size`` limits the pass to pairs of at most that
    many nodes (IDP-1's bounded DP); ``first_node_only`` to the pairs
    whose union holds node 0 (IDP-1's passes after a contraction, see
    :func:`~repro.graph.subgraphs.enumerate_csg_cmp_lists`). Node 0
    stays node 0 when the graph is renumbered breadth-first.
    """
    if not graph.is_bfs_numbered():
        graph, old_of_new = graph.bfs_renumbered()
        bit_map = [bit_map[old] for old in old_of_new]
    # original[S]: an enumerated set in the table's numbering, or None
    # when every node i stands for relation i and needs no translation.
    original: dict[int, int] | None = None
    if any(mask != 1 << node for node, mask in enumerate(bit_map)):
        original = {}
    step = table.join_step(cost_model)
    both_orders = not cost_model.symmetric
    pairs = 0
    for left, rights in enumerate_csg_cmp_lists(
        graph,
        trust_numbering=True,
        max_union_size=max_union_size,
        first_node_only=first_node_only,
    ):
        if original is not None:
            # Each csg is translated once, when the csg stream emits
            # it. Every S2 has a larger minimum than S1 and fits the
            # cap, so the full stream emitted (and translated) it
            # earlier; a slice emits none of them as a csg, so each is
            # translated on its first visit.
            translated = _translate_mask(left, bit_map)
            original[left] = translated
            left = translated
            if first_node_only:
                for right in rights:
                    if right not in original:
                        original[right] = _translate_mask(right, bit_map)
            rights = [original[right] for right in rights]
        for right in rights:
            pairs += 1
            step(left, right)
            if both_orders:
                step(right, left)
    counters.inner_counter += pairs
    counters.ono_lohman_counter += pairs
    counters.csg_cmp_pair_counter = 2 * counters.ono_lohman_counter
    counters.create_join_tree_calls += 2 * pairs if both_orders else pairs


def _translate_mask(mask: int, bit_map: list[int]) -> int:
    """Rewrite a bitset through a per-bit translation table."""
    result = 0
    while mask:
        low = mask & -mask
        result |= bit_map[low.bit_length() - 1]
        mask ^= low
    return result

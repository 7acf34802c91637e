"""Reference copies of the csg-cmp-pair code before the set-level step.

The BestPlan table, DPccp's loop and the paper's three enumeration
routines as they were when every candidate was priced through
``CostModel.price`` and built into a ``JoinTree`` on every win, and
every emitted set was re-yielded through one generator frame per
recursion level of ``EnumerateCsgRec``. The faster code in
:mod:`repro.core.base`, :mod:`repro.core.dpccp` and
:mod:`repro.graph.subgraphs` must reproduce these exactly: the same
plans, costs, counters, table sizes, probes, improvements and k-best
ranks, and the same pair stream in the same order.

Verbatim apart from the names (``Reference*``, ``reference_*``) and
one addition: :meth:`ReferencePlanTable.join_step` hands the live
enumerators the old priced step, so their new loops can run against
the old table. Keep the rest unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro import bitset
from repro.core.base import CounterSet, PlanTable
from repro.core.dpccp import DPccp
from repro.core.kbest import KBestTracker
from repro.cost.base import CostModel
from repro.errors import GraphError, OptimizerError
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree


class ReferencePlanTable:
    """The ``BestPlan`` table: optimal plan per relation set.

    A thin wrapper over a dict keyed by bitset, with the
    compare-and-replace step all three algorithms share: keep the new
    plan only if no plan for the set exists yet or the new one is
    cheaper. Ties keep the incumbent, making results deterministic
    across enumeration orders that produce equal-cost plans.
    """

    __slots__ = ("_plans", "probes", "improvements")

    def __init__(self) -> None:
        self._plans: dict[int, JoinTree] = {}
        #: register/consider calls (cheap plain ints, published to the
        #: obs layer once per run as plan_table_probes/_improvements).
        self.probes = 0
        #: probes that changed the table (new set or cheaper plan).
        self.improvements = 0

    def get(self, mask: int) -> JoinTree | None:
        """Best plan known for ``mask``, or ``None``."""
        return self._plans.get(mask)

    def __getitem__(self, mask: int) -> JoinTree:
        try:
            return self._plans[mask]
        except KeyError:
            raise OptimizerError(
                f"no plan for {bitset.format_bits(mask)}; the enumeration "
                "order violated the dynamic programming precondition"
            ) from None

    def __contains__(self, mask: int) -> bool:
        return mask in self._plans

    def __len__(self) -> int:
        return len(self._plans)

    def register(self, plan: JoinTree) -> bool:
        """Keep ``plan`` if it beats the incumbent for its relation set.

        Returns ``True`` when the table changed.
        """
        self.probes += 1
        incumbent = self._plans.get(plan.relations)
        if incumbent is None or plan.cost < incumbent.cost:
            self._plans[plan.relations] = plan
            self.improvements += 1
            return True
        return False

    def consider(
        self, cost_model: CostModel, left: JoinTree, right: JoinTree
    ) -> bool:
        """Price ``left ⨝ right`` and keep it only if it wins.

        Equivalent to ``register(cost_model.join(left, right))`` but
        skips tree construction for losing candidates — the lazy
        ``CreateJoinTree`` every production DP optimizer uses. Returns
        ``True`` when the table changed.
        """
        self.probes += 1
        cardinality, cost, operator = cost_model.price(left, right)
        mask = left.relations | right.relations
        incumbent = self._plans.get(mask)
        if incumbent is not None and incumbent.cost <= cost:
            return False
        self._plans[mask] = JoinTree.join(
            left, right, cardinality=cardinality, cost=cost, operator=operator
        )
        self.improvements += 1
        return True

    def adopt(self, plan: JoinTree) -> None:
        """Install ``plan`` as its relation set's entry, unconditionally.

        Used by tables that resolve the compare-and-replace step
        themselves (:class:`~repro.core.kbest.KBestPlanTable` builds the
        tree first to offer it to its tracker); unlike :meth:`register`
        this neither compares against an incumbent nor touches the probe
        counters.
        """
        self._plans[plan.relations] = plan

    def masks(self) -> Iterator[int]:
        """All relation sets with a registered plan."""
        return iter(self._plans)

    def join_step(self, cost_model: CostModel) -> Callable[[int, int], bool]:
        """The old per-pair step: price the two halves' trees."""

        def step(left: int, right: int) -> bool:
            return self.consider(cost_model, self[left], self[right])

        return step


class ReferenceKBestPlanTable(ReferencePlanTable):
    """A ``BestPlan`` table that also captures root-set candidates.

    Drop-in replacement injected through ``plan_table_factory``: the
    compare-and-replace semantics (including the keep-the-incumbent
    tie-break and the probe/improvement counters) replicate
    :class:`~repro.core.base.PlanTable` exactly, so the enumeration
    result is bit-identical. The only addition: every candidate priced
    for ``root_mask`` is offered to the tracker, materializing its tree
    only when it could enter the top-k.
    """

    __slots__ = ("_root_mask", "_tracker")

    def __init__(self, root_mask: int, tracker: KBestTracker) -> None:
        super().__init__()
        if root_mask == 0:
            raise OptimizerError("root_mask must cover at least one relation")
        self._root_mask = root_mask
        self._tracker = tracker

    @property
    def tracker(self) -> KBestTracker:
        """The capture sink."""
        return self._tracker

    def register(self, plan: JoinTree) -> bool:
        """Base semantics, plus capture of full-set plans."""
        if plan.relations == self._root_mask:
            self._tracker.offer(plan)
        return super().register(plan)

    def consider(
        self, cost_model: CostModel, left: JoinTree, right: JoinTree
    ) -> bool:
        """Base semantics, plus capture of full-set candidates.

        Losing candidates for the root set are materialized only when
        the tracker's cheap cost pre-filter says they could rank —
        the "heap-pruned during enumeration" path.
        """
        self.probes += 1
        cardinality, cost, operator = cost_model.price(left, right)
        mask = left.relations | right.relations
        tree: JoinTree | None = None
        if mask == self._root_mask and self._tracker.qualifies(cost):
            tree = JoinTree.join(
                left, right, cardinality=cardinality, cost=cost,
                operator=operator,
            )
            self._tracker.offer(tree)
        incumbent = self.get(mask)
        if incumbent is not None and incumbent.cost <= cost:
            return False
        if tree is None:
            tree = JoinTree.join(
                left, right, cardinality=cardinality, cost=cost,
                operator=operator,
            )
        self.adopt(tree)
        self.improvements += 1
        return True


def _check_numbering(graph: QueryGraph, trust_numbering: bool) -> None:
    if not trust_numbering and not graph.is_bfs_numbered():
        raise GraphError(
            "EnumerateCsg/EnumerateCmp require a BFS-numbered connected "
            "graph (paper §3.4.1); use QueryGraph.bfs_renumbered() first"
        )


def reference_csg_rec(
    graph: QueryGraph,
    subset: int,
    excluded: int,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCsgRec(G, S, X)``: grow ``subset`` into larger connected sets.

    Emits ``S ∪ S'`` for every non-empty ``S'`` of the usable
    neighborhood ``N = N(S) \\ X`` (subsets first), then recurses into
    each expansion with ``X ∪ N`` excluded — exactly the paper's two
    consecutive loops, which together guarantee duplicate-freeness and
    a subsets-before-supersets emission order.

    ``max_size`` prunes the enumeration to sets of at most that many
    nodes (used by bounded DP such as IDP); growth is monotone, so
    pruning loses exactly the over-sized sets and nothing else.
    """
    neighborhood = graph.neighborhood(subset) & ~excluded
    if neighborhood == 0:
        return
    if max_size is None:
        for grow in bitset.iter_all_subsets(neighborhood):
            yield subset | grow
        for grow in bitset.iter_all_subsets(neighborhood):
            yield from reference_csg_rec(
                graph, subset | grow, excluded | neighborhood
            )
        return
    headroom = max_size - bitset.popcount(subset)
    if headroom <= 0:
        return
    for grow in bitset.iter_all_subsets(neighborhood):
        if bitset.popcount(grow) <= headroom:
            yield subset | grow
    for grow in bitset.iter_all_subsets(neighborhood):
        if bitset.popcount(grow) < headroom:
            yield from reference_csg_rec(
                graph, subset | grow, excluded | neighborhood, max_size
            )


def reference_csg(
    graph: QueryGraph,
    trust_numbering: bool = False,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCsg(G)``: emit every connected subset exactly once.

    Iterates start nodes ``v_i`` in descending index order; the
    enumeration from ``v_i`` excludes all nodes with a smaller label
    (``B_i``), so each connected set is produced exactly once, from its
    minimum-label node (Lemma 9). Emission order is valid for dynamic
    programming: every connected set appears after all its connected
    subsets (Lemma 12). ``max_size`` restricts emissions to sets of at
    most that many nodes.
    """
    _check_numbering(graph, trust_numbering)
    if max_size is not None and max_size < 1:
        return
    for start in range(graph.n_relations - 1, -1, -1):
        start_mask = bitset.bit(start)
        yield start_mask
        lower_or_equal = (start_mask << 1) - 1  # B_i = {v_j | j <= i}
        yield from reference_csg_rec(graph, start_mask, lower_or_equal, max_size)


def reference_cmp(
    graph: QueryGraph,
    subset: int,
    trust_numbering: bool = False,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCmp(G, S1)``: emit all complements forming csg-cmp-pairs.

    For a connected ``subset`` (= ``S1``), yields every connected
    ``S2`` disjoint from ``S1``, joined to ``S1`` by at least one edge,
    containing only nodes with labels greater than ``min(S1)`` — the
    ordering restriction that makes the combined enumeration emit each
    csg-cmp-pair in exactly one orientation.
    """
    _check_numbering(graph, trust_numbering)
    if subset == 0:
        raise GraphError("EnumerateCmp requires a non-empty S1")
    min_mask = subset & -subset
    lower_or_equal = (min_mask << 1) - 1  # B_{min(S1)}
    excluded = lower_or_equal | subset
    neighborhood = graph.neighborhood(subset) & ~excluded
    # Descending node order, per the paper's "for all v_i in N by
    # descending i". Each start node v_i excludes X ∪ B_i(N) — the
    # lower-numbered neighbors, which produce the supersets containing
    # them from their own iterations. (The paper defines B_i(W) for
    # exactly this; transcriptions that exclude all of N here lose
    # every complement spanning two first-generation neighbors, e.g.
    # ({0},{1,2}) on a triangle.)
    if max_size is not None and max_size < 1:
        return
    for start in _descending_bits(neighborhood):
        start_mask = bitset.bit(start)
        yield start_mask
        lower_neighbors = ((start_mask << 1) - 1) & neighborhood  # B_i(N)
        yield from reference_csg_rec(
            graph, start_mask, excluded | lower_neighbors, max_size
        )


def _descending_bits(mask: int) -> Iterator[int]:
    """Indices of set bits in descending order."""
    while mask:
        index = mask.bit_length() - 1
        yield index
        mask ^= 1 << index


def reference_csg_cmp_pairs(
    graph: QueryGraph,
    trust_numbering: bool = False,
    max_union_size: int | None = None,
) -> Iterator[tuple[int, int]]:
    """Stream all csg-cmp-pairs ``(S1, S2)`` in a DP-valid order.

    Each unordered pair ``{S1, S2}`` is emitted exactly once, in the
    orientation chosen by the ordering of the underlying enumerators
    (``min(S1) < min(S2)``). When a pair is emitted, the optimal plans
    of all connected subsets of ``S1`` and of ``S2`` are already
    computable from previously emitted pairs — the property DPccp
    needs (paper §3.1).

    ``max_union_size`` restricts the stream to pairs with
    ``|S1| + |S2| <= max_union_size``, pruning the enumeration itself
    (not just filtering) — the bounded-DP mode IDP uses.
    """
    _check_numbering(graph, trust_numbering)
    if max_union_size is None:
        for left in reference_csg(graph, trust_numbering=True):
            for right in reference_cmp(graph, left, trust_numbering=True):
                yield left, right
        return
    for left in reference_csg(
        graph, trust_numbering=True, max_size=max_union_size - 1
    ):
        headroom = max_union_size - bitset.popcount(left)
        for right in reference_cmp(
            graph, left, trust_numbering=True, max_size=headroom
        ):
            yield left, right


class ReferenceDPccp(DPccp):
    """DPccp's old loop over the old pair stream and table calls."""

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        if graph.is_bfs_numbered():
            pairs = reference_csg_cmp_pairs(graph, trust_numbering=True)
            translate = None
        else:
            numbered, old_of_new = graph.bfs_renumbered()
            pairs = reference_csg_cmp_pairs(numbered, trust_numbering=True)
            # bit i of an enumerated mask denotes original relation
            # old_of_new[i]; precompute the per-bit translation.
            bit_map = [bitset.bit(old) for old in old_of_new]
            translate = bit_map

        consider = table.consider
        both_orders = not cost_model.symmetric
        for left, right in pairs:
            if translate is not None:
                left = _translate_mask(left, translate)
                right = _translate_mask(right, translate)
            counters.inner_counter += 1
            counters.ono_lohman_counter += 1
            plan_left = table[left]
            plan_right = table[right]
            counters.create_join_tree_calls += 1
            consider(cost_model, plan_left, plan_right)
            if both_orders:
                counters.create_join_tree_calls += 1
                consider(cost_model, plan_right, plan_left)
        counters.csg_cmp_pair_counter = 2 * counters.ono_lohman_counter


def _translate_mask(mask: int, bit_map: list[int]) -> int:
    """Rewrite a bitset through a per-bit translation table."""
    result = 0
    while mask:
        low = mask & -mask
        result |= bit_map[low.bit_length() - 1]
        mask ^= low
    return result

"""LinDP — DP over a linearization: near-optimal bushy trees at scale.

Every exact enumerator in this repo hits the paper's ~20-relation wall,
because the number of connected subgraphs (and so the ``BestPlan``
table) grows exponentially. Neumann & Radke, "Adaptive Optimization of
Very Large Join Queries" (SIGMOD 2018), show the escape hatch this
module implements:

1. **Linearize.** IKKBZ's ASI rank ordering — optimal for *left-deep*
   plans on acyclic graphs — fixes a left-to-right sequence of the
   relations in polynomial time (:func:`repro.core.ikkbz.ikkbz_orders`,
   one candidate sequence per root, all from one pass). On cyclic
   graphs, where IKKBZ's precedence-tree precondition fails, the
   in-order leaf sequence of the GOO tree and BFS orders stand in.
2. **Interval DP.** For one fixed sequence, every bushy tree whose
   leaves respect it has subtrees that are *contiguous intervals* of
   the sequence. The best such tree is found by a classical
   O(n^3)-interval DP: ``best[i..j]`` is the cheapest combination of
   ``best[i..k]`` and ``best[k+1..j]`` over the splits ``k`` where the
   query graph connects the two halves.

Under separable models (C_out) the interval DP is a sweep over plain
floats, bounded by the incumbent: GOO's cost, then the best ordering's
so far. An interval that already costs more (with 1e-9 relative
slack, and room below the root for the full set's cardinality) is
dropped, since costs only grow towards the root; an ordering whose
full interval is dropped is not rebuilt. Only finite intervals serve
as halves. The plans are those of the unbounded sweep, and InnerCounter
counts the splits checked (on the 57-relation foreign-key chain of the
kernel tests, 1,012 instead of 87,196), plus IKKBZ's steps. GOO's own
leaf order always keeps a full interval under GOO's cost unless under-
or overflowing estimates make the sweep's sums and the model's prices
disagree; then that ordering and every later one are swept without a
bound.

The result is polynomial end to end — O(n^3) splits per linearization,
a handful of linearizations — and comes with two guarantees the
escalation ladder (:class:`repro.core.adaptive.AdaptiveOptimizer`)
relies on:

* **cross-product-free**: a split is only priced when an edge crosses
  it, and the input graph must be connected (as for every exact
  algorithm here);
* **never worse than GOO**: the GOO tree's own leaf order is always one
  of the candidate linearizations, and the interval DP over a tree's
  leaf order can always rebuild that tree (its subtrees are contiguous
  intervals), so the champion costs at most GOO's plan.

On small instances LinDP is differential-tested to stay within a small
factor of the exact DP optimum (and to *match* it on chains, where an
optimal bushy plan compatible with the IKKBZ ordering exists).
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.ikkbz import ikkbz_orders
from repro.cost.base import CostModel
from repro.graph.properties import is_tree
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["LinDP", "leaf_order"]

#: On acyclic graphs with at most this many relations, every relation
#: is tried as the IKKBZ root and each resulting ordering gets its own
#: interval DP. Beyond it, orderings are ranked by a cheap left-deep
#: C_out proxy and only the most promising :data:`MAX_DP_ROOTS` pay for
#: a DP.
ALL_ROOTS_LIMIT = 25

#: IKKBZ orderings swept past :data:`ALL_ROOTS_LIMIT`.
MAX_DP_ROOTS = 4


def leaf_order(plan: JoinTree) -> list[int]:
    """Left-to-right leaf sequence of a join tree — its linearization.

    Every subtree of ``plan`` occupies a contiguous interval of this
    sequence, which is what makes it a lossless input to the interval
    DP: the DP can rebuild ``plan`` itself, or anything cheaper.
    """
    order: list[int] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            order.append(node.relation_index)
            continue
        assert node.left is not None and node.right is not None
        stack.append(node.right)
        stack.append(node.left)
    return order


class LinDP(JoinOrderer):
    """Linearized DP: IKKBZ/GOO orderings + contiguous-interval DP."""

    name = "LinDP"

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        goo = GreedyOperatorOrdering().optimize(graph, cost_model=cost_model).plan
        orderings = self._linearizations(graph, cost_model, goo, counters)
        leaves = [cost_model.leaf(index) for index in range(graph.n_relations)]
        counters.extra["lindp_orderings"] = len(orderings)
        separable = (
            cost_model.symmetric
            and cost_model.separable_join_operator is not None
        )
        inf = float("inf")
        best: JoinTree | None = None
        bounded = True
        for order in orderings:
            if separable:
                # GOO's cost bounds the sweep until an ordering beats it.
                incumbent = goo.cost if best is None else best.cost
                plan = self._interval_dp_separable(
                    graph, cost_model, order, leaves, counters,
                    incumbent if bounded else inf,
                )
                if (
                    plan is None and bounded and incumbent < inf
                    and order is orderings[0]
                ):
                    # GOO's leaf order rebuilds GOO's plan within GOO's
                    # cost unless the sweep's sums and the model's prices
                    # disagree, which under- or overflowing estimates
                    # can cause: then no sweep is bounded.
                    bounded = False
                    plan = self._interval_dp_separable(
                        graph, cost_model, order, leaves, counters, inf
                    )
            else:
                plan = self._interval_dp_priced(
                    graph, cost_model, order, leaves, counters
                )
            if plan is not None and (best is None or plan.cost < best.cost):
                best = plan
        # The separable sweep skips intervals whose cost overflowed to
        # inf, so on large queries no full interval may survive; GOO's
        # plan is then still valid and cross-product-free.
        table.register(goo if best is None else best)

    # ------------------------------------------------------------------
    # Linearization candidates
    # ------------------------------------------------------------------

    def _linearizations(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        goo: JoinTree,
        counters: CounterSet,
    ) -> list[list[int]]:
        """Candidate orderings: GOO's leaf order, plus IKKBZ or BFS."""
        orderings = [leaf_order(goo)]
        estimator = cost_model.estimator
        n = graph.n_relations
        if is_tree(graph):
            roots = ikkbz_orders(graph, estimator, counters)
            if n <= ALL_ROOTS_LIMIT:
                orderings.extend(roots)
            else:
                cardinalities = [
                    estimator.base_cardinality(index) for index in range(n)
                ]
                scored = sorted(
                    (
                        (self._proxy_cost(graph, cardinalities, order), root, order)
                        for root, order in enumerate(roots)
                    ),
                    key=lambda entry: entry[:2],
                )
                orderings.extend(
                    entry[2] for entry in scored[:MAX_DP_ROOTS]
                )
        else:
            # Cyclic graph: no precedence tree for IKKBZ. BFS orders are
            # deterministic, every prefix is connected (so the full
            # interval always admits at least the left-deep split
            # chain), and starting from the highest-degree hub tends to
            # keep joinable relations adjacent.
            hub = max(range(n), key=lambda index: (graph.degree(index), -index))
            for start in sorted({0, hub}):
                orderings.append(graph.bfs_order(start))
        return orderings

    @staticmethod
    def _proxy_cost(
        graph: QueryGraph, cardinalities: list[float], order: list[int]
    ) -> float:
        """Left-deep C_out of ``order`` — a cheap key for ranking roots.

        ``cardinalities[i]`` is relation i's base cardinality. Each step
        multiplies the selectivities of the edges into the prefix inline,
        the same factors in the same order as
        :meth:`QueryGraph.crossing_selectivity`.
        """
        incidence = graph.incidence
        mask = 1 << order[0]
        card = cardinalities[order[0]]
        cost = 0.0
        for index in order[1:]:
            selectivity = 1.0
            for other_bit, edge_selectivity in incidence[index]:
                if other_bit & mask:
                    selectivity *= edge_selectivity
            card *= cardinalities[index] * selectivity
            cost += card
            mask |= 1 << index
        return cost

    # ------------------------------------------------------------------
    # Interval DP
    # ------------------------------------------------------------------

    def _prefix_tables(
        self,
        graph: QueryGraph,
        order: list[int],
        leaves: list[JoinTree],
        with_cards: bool,
    ) -> tuple[list[list[int]], list[list[int]], list[list[float]]]:
        """Per-interval masks, outside-neighborhoods and cardinalities.

        ``masks[i][j]`` is the bitset of ``order[i..j]``; ``nbs[i][j]``
        its neighborhood outside the interval (so a split ``[i..k] |
        [k+1..j]`` is connected iff ``nbs[i][k] & masks[k+1][j]``);
        ``cards[i][j]`` the estimator's product-form cardinality of the
        interval, built incrementally (only when ``with_cards``) with the
        selectivities of the edges into the prefix multiplied inline, the
        same factors in the same order as
        :meth:`QueryGraph.crossing_selectivity`. All three are filled in
        O(n^2) amortized graph work.
        """
        n = len(order)
        neighbor_masks = graph.neighbor_masks
        incidence = graph.incidence
        masks = [[0] * n for _ in range(n)]
        nbs = [[0] * n for _ in range(n)]
        cards = [[0.0] * n for _ in range(n)]
        for i in range(n):
            rel = order[i]
            bit = 1 << rel
            row_mask, row_nb, row_card = masks[i], nbs[i], cards[i]
            row_mask[i] = bit
            row_nb[i] = neighbor_masks[rel] & ~bit
            if with_cards:
                row_card[i] = leaves[rel].cardinality
            for j in range(i + 1, n):
                rel = order[j]
                bit = 1 << rel
                prefix = row_mask[j - 1]
                row_mask[j] = prefix | bit
                row_nb[j] = (row_nb[j - 1] | neighbor_masks[rel]) & ~row_mask[j]
                if with_cards:
                    selectivity = 1.0
                    for other_bit, edge_selectivity in incidence[rel]:
                        if other_bit & prefix:
                            selectivity *= edge_selectivity
                    row_card[j] = (
                        row_card[j - 1] * leaves[rel].cardinality * selectivity
                    )
        return masks, nbs, cards

    def _interval_dp_separable(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        order: list[int],
        leaves: list[JoinTree],
        counters: CounterSet,
        incumbent: float,
    ) -> JoinTree | None:
        """Value-only sweep for separable symmetric models.

        Separable models cost a join as ``cost(left) + cost(right) +
        out_cardinality`` (see
        :attr:`repro.cost.base.CostModel.separable_join_operator`), and
        the cardinality of a relation *set* is split-independent under
        the product-form estimators — so intervals are swept with plain
        floats and only the winning ``n - 1`` joins are priced through
        the model afterwards (same trick as DPconv's value sweep).

        Costs only grow towards the root, so an interval whose cost
        already exceeds ``incumbent`` (the cost of the plan this
        ordering must beat) is dropped. The bound leaves 1e-9 of
        relative room, far above the few ulps by which the sweep's float
        sums can differ from the model's pricing of the same plan while
        no estimate under- or overflows. Inner intervals also leave room
        for the full set's cardinality, which the root join adds. An
        ``incumbent`` of inf sets no bound. Returns ``None`` when no
        full interval survives.
        """
        n = len(order)
        masks, nbs, cards = self._prefix_tables(graph, order, leaves, True)
        inf = float("inf")
        limit = incumbent * (1.0 + 1e-9)
        full_cardinality = cards[0][n - 1]
        if limit < inf and full_cardinality < inf:
            inner_limit = limit - full_cardinality
        else:
            # An incumbent or a full set whose estimate overflowed (or
            # is nan) bounds nothing.
            limit = inner_limit = inf
        # lefts[i] lists (k, costs[i][k]) for every k whose interval
        # [i..k] has a finite cost within the bound, ascending in k.
        # Spans grow, so when [i..j] is swept it holds exactly those
        # left halves with k in [i, j-1]. Right halves [k+1..j] are read
        # down column j, where any other interval reads inf.
        lefts: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        cost_cols = [[inf] * n for _ in range(n)]
        mask_cols = [list(column) for column in zip(*masks)]
        splits = [[-1] * n for _ in range(n)]
        for i in range(n):
            leaf_cost = leaves[order[i]].cost
            if leaf_cost < inf and not leaf_cost > inner_limit:
                cost_cols[i][i] = leaf_cost
                lefts[i].append((i, leaf_cost))
        splits_checked = 0
        for span in range(2, n + 1):
            bound = limit if span == n else inner_limit
            for i in range(n - span + 1):
                j = i + span - 1
                best = inf
                best_split = -1
                nbs_i = nbs[i]
                costs_j, masks_j = cost_cols[j], mask_cols[j]
                for k, left_cost in lefts[i]:
                    right_cost = costs_j[k + 1]
                    # inf is the sentinel of an interval that is not a
                    # half: every kept cost is finite.
                    if right_cost == inf:  # lint: ignore[COST001]
                        continue
                    splits_checked += 1
                    if not nbs_i[k] & masks_j[k + 1]:
                        continue
                    total = left_cost + right_cost
                    if total < best:
                        best = total
                        best_split = k
                if best_split >= 0:
                    cost = best + cards[i][j]
                    if not cost > bound:
                        splits[i][j] = best_split
                        # An inf or nan half never makes a cheaper total.
                        if cost < inf:
                            costs_j[i] = cost
                            lefts[i].append((j, cost))
        counters.inner_counter += splits_checked
        counters.extra["lindp_splits"] = (
            counters.extra.get("lindp_splits", 0) + splits_checked
        )
        if splits[0][n - 1] < 0:
            return None
        return self._rebuild(cost_model, order, leaves, splits, counters)

    def _rebuild(
        self,
        cost_model: CostModel,
        order: list[int],
        leaves: list[JoinTree],
        splits: list[list[int]],
        counters: CounterSet,
    ) -> JoinTree:
        """Price the winning splits through the model (n - 1 joins).

        Iterative so deep (left-deep-shaped) winners on large n cannot
        hit the recursion limit. The returned plan's cost is the
        model's own arithmetic, not the sweep's float accumulation.
        """
        built: dict[tuple[int, int], JoinTree] = {}
        stack = [(0, len(order) - 1)]
        while stack:
            i, j = stack[-1]
            if i == j:
                built[(i, j)] = leaves[order[i]]
                stack.pop()
                continue
            k = splits[i][j]
            left, right = (i, k), (k + 1, j)
            if left not in built:
                stack.append(left)
                continue
            if right not in built:
                stack.append(right)
                continue
            counters.create_join_tree_calls += 1
            built[(i, j)] = cost_model.join(built[left], built[right])
            stack.pop()
        return built[(0, len(order) - 1)]

    def _interval_dp_priced(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        order: list[int],
        leaves: list[JoinTree],
        counters: CounterSet,
    ) -> JoinTree | None:
        """Generic path: price every feasible split through the model.

        Used for models that are asymmetric or not separable, where the
        value sweep's float shortcut would be unsound. Materializes one
        tree per interval; both input orders are priced under
        asymmetric models (the usual ``CreateJoinTree`` commutativity
        handling).
        """
        n = len(order)
        masks, nbs, _ = self._prefix_tables(graph, order, leaves, False)
        trees: list[list[JoinTree | None]] = [[None] * n for _ in range(n)]
        for i in range(n):
            trees[i][i] = leaves[order[i]]
        try_both = not cost_model.symmetric
        splits_checked = 0
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                j = i + span - 1
                best: JoinTree | None = None
                trees_i, nbs_i = trees[i], nbs[i]
                for k in range(i, j):
                    left = trees_i[k]
                    if left is None:
                        continue
                    right = trees[k + 1][j]
                    if right is None:
                        continue
                    splits_checked += 1
                    if not nbs_i[k] & masks[k + 1][j]:
                        continue
                    counters.create_join_tree_calls += 1
                    candidate = cost_model.join(left, right)
                    if try_both:
                        counters.create_join_tree_calls += 1
                        flipped = cost_model.join(right, left)
                        if flipped.cost < candidate.cost:
                            candidate = flipped
                    if best is None or candidate.cost < best.cost:
                        best = candidate
                trees[i][j] = best
        counters.inner_counter += splits_checked
        counters.extra["lindp_splits"] = (
            counters.extra.get("lindp_splits", 0) + splits_checked
        )
        return trees[0][n - 1]

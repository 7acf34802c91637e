"""Reference ladder kernels: GOO, IKKBZ, LinDP's sweep and IDP's block DP.

These are the versions the faster kernels in :mod:`repro.core` must
match: the same plan, cost and table size on every input, and
counters that equal the counts these copies give (see
:mod:`tests.core.test_ladder_kernels` for how each counter is held).
Each is a copy of the code before its per-step speed-ups:

* GOO tests every forest pair with ``QueryGraph.are_connected``, which
  rebuilds ``N(S)`` one bit at a time, and estimates every connected
  pair again in every round;
* IKKBZ recomputes a module's rank on every comparison, merges even
  a single chain through the heap, and orders each root in its own
  recursive pass, normalizing every subtree chain again per root;
* LinDP orders its roots through those passes, prices each cell of its
  proxy ranking and interval tables through
  ``QueryGraph.crossing_selectivity``, rebuilds the leaves for each
  ordering, and its separable sweep visits every split ``k``, infinite
  halves included, with no bound; it records what each sweep saw, so
  the tests can count what the bounded sweep must check;
* IDP-1's driver runs its own bounded DP per iteration, which
  enumerates every csg-cmp-pair of the working graph, translates both
  masks of each and builds a ``JoinTree`` for every orientation it
  prices. It follows IDP-1's rules: one table across iterations, keyed
  by relation set, which drops the entries that meet a committed block;
  a pair whose union was in the table when the iteration began is not
  offered; equal-cost blocks go to the lowest relation mask; and the
  compound node is numbered 0, by the inherited ``_contract``.

They are slower, and they define what the planners return; keep them
as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf

from repro import bitset
from repro.core.base import CounterSet, PlanTable
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.idp import IterativeDP
from repro.core.ikkbz import IKKBZ
from repro.core.lindp import ALL_ROOTS_LIMIT, MAX_DP_ROOTS, LinDP, leaf_order
from repro.cost.base import CostModel
from repro.cost.cardinality import CardinalityEstimator
from repro.errors import OptimizerError
from repro.graph.properties import is_tree
from repro.graph.querygraph import QueryGraph
from repro.graph.subgraphs import enumerate_csg_cmp_pairs
from repro.plans.jointree import JoinTree


class ReferenceGOO(GreedyOperatorOrdering):
    """GOO with the pair test through ``QueryGraph.are_connected``."""

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        estimator = cost_model.estimator
        forest: list[JoinTree] = [table[1 << i] for i in range(graph.n_relations)]

        while len(forest) > 1:
            best_pair: tuple[int, int] | None = None
            first_pair: tuple[int, int] | None = None
            best_cardinality = float("inf")
            for i in range(len(forest)):
                for j in range(i + 1, len(forest)):
                    counters.inner_counter += 1
                    if not graph.are_connected(
                        forest[i].relations, forest[j].relations
                    ):
                        continue
                    if first_pair is None:
                        first_pair = (i, j)
                    cardinality = estimator.join_cardinality(forest[i], forest[j])
                    if cardinality < best_cardinality:
                        best_cardinality = cardinality
                        best_pair = (i, j)
            # On large queries every estimate can overflow to inf, and
            # none compares below the initial inf; any connected pair
            # still keeps the plan cross-product-free.
            pair = best_pair or first_pair
            if pair is None:
                # Unreachable for connected graphs (optimize() checks),
                # kept as a defensive invariant.
                raise AssertionError("greedy forest became disconnected")
            i, j = pair
            left, right = forest[i], forest[j]
            counters.create_join_tree_calls += 2
            joined = min(
                cost_model.join(left, right),
                cost_model.join(right, left),
                key=lambda plan: plan.cost,
            )
            counters.ono_lohman_counter += 1
            counters.csg_cmp_pair_counter += 2
            table.register(joined)
            forest[i] = joined
            del forest[j]


@dataclass(slots=True)
class _Module:
    """A maximal run of relations committed to appear consecutively.

    ``t`` is the multiplicative size factor (product of ``s_i * n_i``),
    ``c`` the additive ASI cost of the run.
    """

    indices: list[int]
    t: float
    c: float

    @property
    def rank(self) -> float:
        """ASI rank ``(T - 1) / C``; modules are ordered by this.

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
                return float("inf")
            if self.t < 1.0:
                return float("-inf")
            return 0.0
        return (self.t - 1.0) / self.c

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
    import heapq

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


class ReferenceIKKBZ(IKKBZ):
    """IKKBZ with a separate pass per root.

    Holds the old ``_run``, which calls :func:`ikkbz_order_for_root`
    once per root, so it runs none of IKKBZ's production ordering.
    """

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
        return ikkbz_order_for_root(graph, estimator, root, counters)


class ReferenceLinDP(LinDP):
    """LinDP with per-root IKKBZ passes and the separable sweep over every split.

    Holds its own ``_run``, linearizations, proxy ranking and prefix
    tables, which order every root through :func:`ikkbz_order_for_root`,
    rebuild the leaves for each ordering and price each table cell
    through ``QueryGraph.crossing_selectivity``; only ``_rebuild`` is
    inherited.
    """

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        goo = GreedyOperatorOrdering().optimize(graph, cost_model=cost_model).plan
        # What the separable sweep saw, for the tests' own counts: the
        # GOO plan, then per ordering its unbounded cost table, the full
        # interval's cardinality and the plan it rebuilt (or None).
        self.goo = goo
        self.sweeps: list[tuple[list[list[float]], float, JoinTree | None]] = []
        orderings = self._linearizations(graph, cost_model, goo, counters)
        counters.extra["lindp_orderings"] = len(orderings)
        separable = (
            cost_model.symmetric
            and cost_model.separable_join_operator is not None
        )
        best: JoinTree | None = None
        for order in orderings:
            if separable:
                plan = self._interval_dp_separable(
                    graph, cost_model, order, counters
                )
            else:
                plan = self._interval_dp_priced(
                    graph, cost_model, order, counters
                )
            if plan is not None and (best is None or plan.cost < best.cost):
                best = plan
        # The separable sweep skips intervals whose cost overflowed to
        # inf, so on large queries no full interval may survive; GOO's
        # plan is then still valid and cross-product-free.
        table.register(goo if best is None else best)

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
            if n <= ALL_ROOTS_LIMIT:
                orderings.extend(
                    ikkbz_order_for_root(graph, estimator, root, counters)
                    for root in range(n)
                )
            else:
                scored = sorted(
                    (
                        (
                            self._proxy_cost(graph, estimator, order),
                            root,
                            order,
                        )
                        for root, order in (
                            (
                                root,
                                ikkbz_order_for_root(
                                    graph, estimator, root, counters
                                ),
                            )
                            for root in range(n)
                        )
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
        graph: QueryGraph,
        estimator: CardinalityEstimator,
        order: list[int],
    ) -> float:
        """Left-deep C_out of ``order`` — a cheap key for ranking roots."""
        mask = 1 << order[0]
        card = estimator.base_cardinality(order[0])
        cost = 0.0
        for index in order[1:]:
            card *= estimator.base_cardinality(
                index
            ) * graph.crossing_selectivity(1 << index, mask)
            cost += card
            mask |= 1 << index
        return cost

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
        interval, built incrementally (only when ``with_cards``). All
        three are filled in O(n^2) amortized graph work.
        """
        n = len(order)
        neighbor_masks = graph.neighbor_masks
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
                    row_card[j] = (
                        row_card[j - 1]
                        * leaves[rel].cardinality
                        * graph.crossing_selectivity(bit, prefix)
                    )
        return masks, nbs, cards

    def _interval_dp_separable(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        order: list[int],
        counters: CounterSet,
    ) -> JoinTree | None:
        """Value-only sweep for separable symmetric models.

        Separable models cost a join as ``cost(left) + cost(right) +
        out_cardinality`` (see
        :attr:`repro.cost.base.CostModel.separable_join_operator`), and
        the cardinality of a relation *set* is split-independent under
        the product-form estimators — so intervals are swept with plain
        floats and only the winning ``n - 1`` joins are priced through
        the model afterwards (same trick as DPconv's value sweep).
        """
        n = len(order)
        leaves = [cost_model.leaf(index) for index in range(graph.n_relations)]
        masks, nbs, cards = self._prefix_tables(graph, order, leaves, True)
        inf = float("inf")
        costs = [[inf] * n for _ in range(n)]
        splits = [[-1] * n for _ in range(n)]
        for i in range(n):
            costs[i][i] = leaves[order[i]].cost
        splits_checked = 0
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                j = i + span - 1
                best = inf
                best_split = -1
                costs_i, nbs_i = costs[i], nbs[i]
                for k in range(i, j):
                    left_cost = costs_i[k]
                    if isinf(left_cost):
                        continue
                    right_cost = costs[k + 1][j]
                    if isinf(right_cost):
                        continue
                    splits_checked += 1
                    if not nbs_i[k] & masks[k + 1][j]:
                        continue
                    total = left_cost + right_cost
                    if total < best:
                        best = total
                        best_split = k
                if best_split >= 0:
                    costs[i][j] = best + cards[i][j]
                    splits[i][j] = best_split
        counters.inner_counter += splits_checked
        counters.extra["lindp_splits"] = (
            counters.extra.get("lindp_splits", 0) + splits_checked
        )
        plan = None
        if splits[0][n - 1] >= 0:
            plan = self._rebuild(cost_model, order, leaves, splits, counters)
        self.sweeps.append((costs, cards[0][n - 1], plan))
        return plan

    def _interval_dp_priced(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        order: list[int],
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
        leaves = [cost_model.leaf(index) for index in range(graph.n_relations)]
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


class ReferenceIterativeDP(IterativeDP):
    """IDP-1 with a tree per priced orientation and per-pair translation.

    Holds its own driver loop as well as its block DP, so it runs none
    of IDP-1's production enumeration; only the graph contraction
    (``_contract``, which numbers the compound node 0) is inherited.
    """

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
        # One table across passes, keyed by original relation set, and
        # the number of working nodes each entry holds.
        plans = {plan.relations: plan for plan in node_plans}
        sizes = dict.fromkeys(plans, 1)

        while True:
            n = working_graph.n_relations
            block_size = min(self._k, n)
            self._bounded_dp(
                working_graph, cost_model, node_plans, plans, sizes,
                counters, block_size,
            )
            if n <= self._k:
                table.register(plans[graph.all_relations])
                return
            best_mask = min(
                (mask for mask, size in sizes.items() if size == block_size),
                key=lambda mask: (plans[mask].cost, mask),
            )
            best_block = plans[best_mask]
            for mask in [mask for mask in plans if mask & best_mask]:
                del plans[mask]
                del sizes[mask]
            plans[best_mask] = best_block
            sizes[best_mask] = 1
            block_nodes = 0
            for node, plan in enumerate(node_plans):
                if plan.relations & best_mask:
                    block_nodes |= bitset.bit(node)
            working_graph, node_plans = self._contract(
                working_graph, node_plans, block_nodes, best_block
            )

    @staticmethod
    def _bounded_dp(
        graph: QueryGraph,
        model: CostModel,
        node_plans: list[JoinTree],
        plans: dict[int, JoinTree],
        sizes: dict[int, int],
        counters: CounterSet,
        cap: int,
    ) -> None:
        """Add the best plan per new connected working set of at most ``cap`` nodes.

        ``plans`` maps original relation sets to original-space trees
        (the leaves of working nodes are their committed subplans), so
        pricing happens directly with the caller's cost model. Every
        csg-cmp-pair of the working graph is enumerated; a pair whose
        union was in ``plans`` when the pass began is not offered.
        """
        if graph.is_bfs_numbered():
            numbered, order = graph, list(range(graph.n_relations))
        else:
            numbered, order = graph.bfs_renumbered()
        bit_map = [node_plans[old].relations for old in order]
        known = set(plans)

        symmetric = model.symmetric
        for left, right in enumerate_csg_cmp_pairs(
            numbered, trust_numbering=True, max_union_size=cap
        ):
            size = bitset.popcount(left | right)
            left = _translate(left, bit_map)
            right = _translate(right, bit_map)
            combined = left | right
            if combined in known:
                continue
            counters.inner_counter += 1
            counters.ono_lohman_counter += 1
            counters.csg_cmp_pair_counter += 2
            plan_left = plans[left]
            plan_right = plans[right]
            incumbent = plans.get(combined)
            counters.create_join_tree_calls += 1
            candidate = model.join(plan_left, plan_right)
            if incumbent is None or candidate.cost < incumbent.cost:
                plans[combined] = candidate
                sizes[combined] = size
                incumbent = candidate
            if not symmetric:
                counters.create_join_tree_calls += 1
                candidate = model.join(plan_right, plan_left)
                if candidate.cost < incumbent.cost:
                    plans[combined] = candidate


def _translate(mask: int, bit_map: list[int]) -> int:
    result = 0
    while mask:
        low = mask & -mask
        result |= bit_map[low.bit_length() - 1]
        mask ^= low
    return result

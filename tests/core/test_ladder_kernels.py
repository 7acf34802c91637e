"""Ladder kernels against their references, plus work pins.

GOO, IKKBZ, LinDP's separable interval sweep and IDP-1's bounded DP
must return what the copies in :mod:`tests.core.reference_ladder`
return: the same plan (``==``), the same ``repr`` of its cost, the same
table size and probes. The instances cover the paper's shapes, random
graphs, ladder-scale foreign-key queries and queries whose estimates
overflow to inf, under both cost models.

Each ladder heuristic's InnerCounter counts the candidates it
evaluates, so the counters are held to independent counts taken from
the references:

* IKKBZ and IDP-1 match their references' counters exactly; the IDP-1
  reference runs the same rules (one table across passes, the compound
  node numbered 0, equal-cost blocks to the lowest relation mask) over
  every pair of every pass, and offers only the pairs whose union is
  new;
* GOO matches every counter but InnerCounter, which equals the number
  of distinct tree pairs the reference estimated;
* LinDP's separable sweep matches the IKKBZ share of InnerCounter,
  and its split checks and rebuilt joins equal the counts that its
  bound leaves in the reference's unbounded cost tables.

The IDP-1 reference holds its own driver and block DP; a guard makes
every reference run fail if it reaches the production pair pass or
the table's join step, and checks that it ran its own block DP. The
IKKBZ and LinDP references hold their own ``_run`` (and LinDP its own
linearizations, proxy and tables); a guard makes them fail if they
reach :func:`repro.core.ikkbz.ikkbz_orders` or LinDP's production
methods, and checks that they ordered every root of a tree through
their own per-root pass.

The work pins count calls and steps, not time: GOO tests its pairs
without ``QueryGraph.are_connected`` and estimates each pair of trees
once, IDP-1 under C_out builds join trees only for its committed
blocks and its final plan and offers only the pairs through its newest
block, LinDP normalizes each directed edge of a tree once, its proxy
ranking and interval tables multiply selectivities without
``QueryGraph.crossing_selectivity``, and its sweep checks only the
splits that its incumbent's cost leaves.
"""

from __future__ import annotations

import math
import random
import sys

import pytest

import repro.core.dpccp as dpccp_module
import repro.core.idp as idp_module
import repro.core.ikkbz as ikkbz_module
import repro.core.lindp as lindp_module
from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.core.base import CounterSet, PlanTable
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.idp import IterativeDP
from repro.core.ikkbz import IKKBZ, ikkbz_orders
from repro.core.lindp import LinDP
from repro.cost.cout import CoutModel
from repro.cost.disk import DiskCostModel
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    random_tree_graph,
    star_graph,
)
from repro.graph.properties import is_tree
from repro.graph.querygraph import JoinEdge, QueryGraph
from repro.plans.jointree import JoinTree
from tests.core import reference_ladder as ref

MODELS = {"cout": CoutModel, "disk": DiskCostModel}

_SHAPED = {
    "chain": chain_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "clique": clique_graph,
}


def shaped(shape: str, n: int, rng: random.Random) -> QueryGraph:
    if shape == "tree":
        return random_tree_graph(n, rng)
    if shape == "random":
        return random_connected_graph(n, rng, rng.random() * 0.6)
    return _SHAPED[shape](n, rng=rng)


def light_instance(shape: str, n: int):
    """Random selectivities and ``random_catalog`` statistics."""
    rng = random.Random(f"{shape}/{n}")
    graph = shaped(shape, n, rng)
    return graph, random_catalog(n, rng)


def fk_instance(shape: str, n: int):
    """Ladder-scale query: each edge keeps 1 / the larger cardinality."""
    rng = random.Random(f"fk/{shape}/{n}")
    graph = shaped(shape, n, rng)
    catalog = random_catalog(n, rng)
    edges = [
        JoinEdge(
            edge.left,
            edge.right,
            1.0
            / max(
                catalog.cardinality(edge.left),
                catalog.cardinality(edge.right),
                1.0,
            ),
        )
        for edge in graph.edges
    ]
    return QueryGraph(n, edges), catalog


def tied_instance(shape: str, n: int):
    """Equal cardinalities and selectivities: many candidates tie."""
    return _SHAPED[shape](n, selectivity=0.01), uniform_catalog(n, 1000.0)


def overflowing_instance(shape: str, n: int):
    """The chain and star of ``test_overflowed_estimates``: inf costs."""
    rng = random.Random(0)
    graph = _SHAPED[shape](n, rng=rng)
    return graph, random_catalog(n, rng)


def disagreeing_instance(shape: str, n: int):
    """A cycle whose interval sums and model prices disagree.

    Cardinalities of 1e100 across selectivities down to 1e-300
    underflow in one multiplication order and not in another: LinDP's
    sweep prices GOO's own leaf order at 0.5, while GOO's plan costs
    5e-100 under the model.
    """
    around = (1e-100, 1e-300, 0.5, 0.5, 0.5, 1e-100, 1e-300, 1e-100, 1e-300, 1e-200, 1e-100)
    edges = [JoinEdge(0, 1, around[0]), JoinEdge(0, n - 1, 0.5)] + [
        JoinEdge(i, i + 1, around[i]) for i in range(1, n - 1)
    ]
    return QueryGraph(n, edges), uniform_catalog(n, 1e100)


def underflowing_instance(shape: str, n: int):
    """Overflowed cardinalities across underflowed selectivities: nan.

    Every join overflows to inf, and where two edges cross, their
    selectivities multiply to 0.0, so the estimate is ``inf * 0.0``.
    """
    return _SHAPED[shape](n, selectivity=1e-200), uniform_catalog(n, 1e300)


#: (id, builder, args). Light instances span n = 2..40; the ladder-scale
#: ones are what LinDP and GOO serve in practice.
LIGHT = [
    (f"{shape}-{n}", light_instance, (shape, n))
    for shape in ("chain", "cycle", "star", "tree", "clique", "random")
    for n in (2, 3, 5, 8, 13, 21, 40)
    if not (shape == "cycle" and n < 3)
]
LADDER = [
    (f"fk-{shape}-{n}", fk_instance, (shape, n))
    for shape, n in (
        ("chain", 57),
        ("cycle", 80),
        ("star", 100),
        ("tree", 130),
        ("chain", 160),
    )
]
#: Ties decide by scan order: GOO's first pair, LinDP's first split,
#: IDP-1's first-inserted block and each set's first-priced plan.
TIED = [
    (f"tied-{shape}-{n}", tied_instance, (shape, n))
    for shape in ("chain", "cycle", "star", "clique")
    for n in (6, 11, 24)
]
OVERFLOWED = [
    (f"overflow-{shape}-140", overflowing_instance, (shape, 140))
    for shape in ("chain", "star")
] + [
    (f"nan-{shape}-{n}", underflowing_instance, (shape, n))
    for shape, n in (("cycle", 4), ("cycle", 9), ("clique", 6))
] + [("disagree-cycle-12", disagreeing_instance, ("cycle", 12))]

def instance(case):
    _key, builder, args = case
    return builder(*args)


def selected(*groups, keep=lambda shape, n: True):
    return [case for group in groups for case in group if keep(*case[2])]


def params(*groups, keep=lambda shape, n: True):
    return [pytest.param(case, id=case[0]) for case in selected(*groups, keep=keep)]


def idp_feasible(shape: str, n: int) -> bool:
    """Instances whose size-7 blocks IDP-1 enumerates in milliseconds."""
    return n <= 8 or (shape in ("chain", "cycle") and n <= 80)


def assert_same_result(result, reference) -> None:
    assert result.plan == reference.plan
    assert repr(result.cost) == repr(reference.cost)
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert result.table_size == reference.table_size
    assert result.table_probes == reference.table_probes


def plan_fields(plan: JoinTree) -> list[tuple]:
    """Every node's fields in pre-order, floats by ``repr`` (so nan == nan)."""
    fields = []
    stack = [plan]
    while stack:
        node = stack.pop()
        fields.append(
            (node.relations, repr(node.cardinality), repr(node.cost),
             node.operator, node.name)
        )
        stack.extend(child for child in (node.right, node.left) if child)
    return fields


def assert_same_result_but(result, reference, *counters: str) -> None:
    """:func:`assert_same_result`, except for the named counters."""
    assert plan_fields(result.plan) == plan_fields(reference.plan)
    assert repr(result.cost) == repr(reference.cost)
    own = result.counters.as_dict()
    expected = reference.counters.as_dict()
    for name in counters:
        own.pop(name)
        expected.pop(name)
    assert own == expected
    assert result.table_size == reference.table_size
    assert result.table_probes == reference.table_probes


def estimated_pairs(monkeypatch, model) -> set[frozenset[int]]:
    """The distinct pairs of trees ``model``'s estimator is asked to join."""
    pairs: set[frozenset[int]] = set()
    estimator = model.estimator
    join_cardinality = estimator.join_cardinality

    def recorded(left, right):
        pairs.add(frozenset((left.relations, right.relations)))
        return join_cardinality(left, right)

    monkeypatch.setattr(estimator, "join_cardinality", recorded)
    return pairs


def bounded_sweep_counts(reference: ref.ReferenceLinDP) -> tuple[int, int]:
    """LinDP's split checks and rebuilt joins under the sweep's bound.

    Counted from the reference's unbounded cost tables: an interval
    survives when its cost is finite and not above the limit, which is
    the incumbent's cost (GOO's until an ordering's plan beats it) plus
    1e-9 of it, less the full set's cardinality for inner intervals.
    An incumbent or full-set cardinality that is inf or nan sets no
    limit. A split counts when both halves survive; an ordering whose
    full interval survives rebuilds its n - 1 joins. When GOO's leaf
    order, swept first, keeps no full interval under a finite GOO cost,
    it is swept again without a limit, and so is every later ordering.
    """

    def count(costs, full_cardinality, incumbent) -> tuple[int, bool]:
        """Splits checked under ``incumbent``, and whether the root survives."""
        n = len(costs)
        limit = incumbent * (1 + 1e-9)
        if limit < math.inf and full_cardinality < math.inf:
            inner = limit - full_cardinality
        else:
            limit = inner = math.inf

        def survives(i: int, j: int) -> bool:
            return math.isfinite(costs[i][j]) and not costs[i][j] > inner

        checked = 0
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                j = i + span - 1
                checked += sum(
                    survives(i, k) and survives(k + 1, j) for k in range(i, j)
                )
        return checked, not costs[0][n - 1] > limit

    splits = joins = 0
    best = None
    bounded = True
    for index, (costs, full_cardinality, plan) in enumerate(reference.sweeps):
        incumbent = reference.goo.cost if best is None else best.cost
        checked, kept = count(
            costs, full_cardinality, incumbent if bounded else math.inf
        )
        splits += checked
        kept = kept and plan is not None
        if not kept and bounded and incumbent < math.inf and index == 0:
            bounded = False
            checked, kept = count(costs, full_cardinality, math.inf)
            splits += checked
            kept = kept and plan is not None
        if kept:
            joins += len(costs) - 1
            if best is None or plan.cost < best.cost:
                best = plan
    return splits, joins


def production(*args, **kwargs):
    raise AssertionError("a ladder reference reached production code")


def counted_roots(patch) -> list[int]:
    """Count the reference's per-root IKKBZ passes while ``patch`` holds."""
    roots = [0]
    order_for_root = ref.ikkbz_order_for_root

    def counted(*args):
        roots[0] += 1
        return order_for_root(*args)

    patch.setattr(ref, "ikkbz_order_for_root", counted)
    return roots


def reference_lindp(monkeypatch, graph, model):
    """Reference LinDP end to end: its GOO seed and IKKBZ orders too.

    The production IKKBZ pass and every LinDP method the reference
    holds a copy of raise while it runs; on a tree it must have ordered
    every root through its own per-root pass. Returns the result and
    the optimizer, which recorded its sweeps.
    """
    with monkeypatch.context() as patch:
        patch.setattr(ref, "GreedyOperatorOrdering", ref.ReferenceGOO)
        patch.setattr(ikkbz_module, "ikkbz_orders", production)
        patch.setattr(lindp_module, "ikkbz_orders", production)
        for name in (
            "_run",
            "_linearizations",
            "_proxy_cost",
            "_prefix_tables",
            "_interval_dp_separable",
            "_interval_dp_priced",
        ):
            patch.setattr(LinDP, name, production)
        roots = counted_roots(patch)
        optimizer = ref.ReferenceLinDP()
        reference = optimizer.optimize(graph, cost_model=model)
    assert roots[0] == (graph.n_relations if is_tree(graph) else 0)
    return reference, optimizer


def reference_ikkbz(monkeypatch, graph, model):
    """Reference IKKBZ, guarded like :func:`reference_lindp`."""
    with monkeypatch.context() as patch:
        patch.setattr(ikkbz_module, "ikkbz_orders", production)
        patch.setattr(IKKBZ, "_run", production)
        roots = counted_roots(patch)
        reference = ref.ReferenceIKKBZ().optimize(graph, cost_model=model)
    assert roots[0] == graph.n_relations
    return reference


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("case", params(LIGHT, TIED, LADDER, OVERFLOWED))
def test_goo_matches_reference(monkeypatch, case, model):
    graph, catalog = instance(case)
    build = MODELS[model]
    result = GreedyOperatorOrdering().optimize(
        graph, cost_model=build(graph, catalog)
    )
    reference_model = build(graph, catalog)
    pairs = estimated_pairs(monkeypatch, reference_model)
    reference = ref.ReferenceGOO().optimize(graph, cost_model=reference_model)
    assert_same_result_but(result, reference, "inner_counter")
    # The reference re-estimates every connected pair in every round;
    # GOO estimates each pair of trees once.
    assert result.counters.inner_counter == len(pairs)


def is_tree_shape(shape: str, n: int) -> bool:
    return shape in ("chain", "star", "tree") and n >= 2


@pytest.mark.parametrize(
    "case", params(LIGHT, TIED, LADDER, OVERFLOWED, keep=is_tree_shape)
)
def test_ikkbz_orders_match_reference(case):
    graph, catalog = instance(case)
    # Both cost models share this estimator; the orders depend on it alone.
    estimator = CoutModel(graph, catalog).estimator
    reference_estimator = CoutModel(graph, catalog).estimator
    counters, reference_counters = CounterSet(), CounterSet()
    orders = ikkbz_orders(graph, estimator, counters)
    expected = [
        ref.ikkbz_order_for_root(
            graph, reference_estimator, root, reference_counters
        )
        for root in range(graph.n_relations)
    ]
    assert orders == expected
    assert counters.as_dict() == reference_counters.as_dict()


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("case", params(LIGHT, TIED, keep=is_tree_shape))
def test_ikkbz_matches_reference(monkeypatch, case, model):
    graph, catalog = instance(case)
    build = MODELS[model]
    assert_same_result(
        IKKBZ().optimize(graph, cost_model=build(graph, catalog)),
        reference_ikkbz(monkeypatch, graph, build(graph, catalog)),
    )


@pytest.mark.parametrize(
    "model,case",
    [
        # Past 25 relations, trees (the light 40s and the ladder-scale
        # chains, stars and trees) rank their IKKBZ roots by the
        # left-deep proxy and sweep only the best four orders.
        *(
            pytest.param("cout", case, id=f"cout-{case[0]}")
            for case in selected(LIGHT, TIED, LADDER, OVERFLOWED)
        ),
        # The asymmetric model takes the priced path over the same
        # GOO and IKKBZ orders.
        *(
            pytest.param("disk", case, id=f"disk-{case[0]}")
            for case in selected(LIGHT, TIED, keep=lambda shape, n: n <= 24)
        ),
    ],
)
def test_lindp_matches_reference(monkeypatch, model, case):
    graph, catalog = instance(case)
    build = MODELS[model]
    result = LinDP().optimize(graph, cost_model=build(graph, catalog))
    reference, optimizer = reference_lindp(
        monkeypatch, graph, build(graph, catalog)
    )
    if model == "disk":
        # The priced path has no bound.
        assert_same_result(result, reference)
        return
    # The separable sweep skips what its bound drops: split checks and
    # the rebuilds of orderings whose full interval is dropped.
    assert_same_result_but(
        result, reference, "inner_counter", "lindp_splits",
        "create_join_tree_calls",
    )
    splits, joins = bounded_sweep_counts(optimizer)
    extra, expected = result.counters.extra, reference.counters.extra
    assert extra["lindp_splits"] == splits
    assert result.counters.create_join_tree_calls == joins
    # The IKKBZ share of InnerCounter is unchanged.
    assert (
        result.counters.inner_counter - extra["lindp_splits"]
        == reference.counters.inner_counter - expected["lindp_splits"]
    )


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("k", [2, 3, 5, 7])
@pytest.mark.parametrize("case", params(LIGHT, TIED, LADDER, keep=idp_feasible))
def test_idp_matches_reference(monkeypatch, case, k, model):
    graph, catalog = instance(case)
    build = MODELS[model]
    result = IterativeDP(k).optimize(graph, cost_model=build(graph, catalog))
    reference = reference_idp(monkeypatch, k, graph, build(graph, catalog))
    assert_same_result(result, reference)


def reference_idp(monkeypatch, k, graph, model):
    """Reference IDP-1, guarded so that it cannot run production code.

    The production pair pass and the table's join step raise while it
    runs, and its own block DP must have run.
    """
    def production(*args, **kwargs):
        raise AssertionError("the IDP-1 reference reached production code")

    block_dps = [0]
    bounded_dp = ref.ReferenceIterativeDP._bounded_dp

    def counted(*args):
        block_dps[0] += 1
        return bounded_dp(*args)

    with monkeypatch.context() as patch:
        patch.setattr(idp_module, "_pair_pass", production)
        patch.setattr(dpccp_module, "_pair_pass", production)
        patch.setattr(PlanTable, "join_step", production)
        patch.setattr(
            ref.ReferenceIterativeDP, "_bounded_dp", staticmethod(counted)
        )
        reference = ref.ReferenceIterativeDP(k).optimize(graph, cost_model=model)
    assert block_dps[0] > 0
    return reference


def count_calls(monkeypatch, owner, name) -> list[int]:
    """Count calls to ``owner.name`` while the test runs."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkPins:
    def test_goo_tests_pairs_without_are_connected(self, monkeypatch):
        graph = star_graph(30, rng=random.Random(3))
        catalog = random_catalog(30, random.Random(3))
        calls = count_calls(monkeypatch, QueryGraph, "are_connected")
        result = GreedyOperatorOrdering().optimize(graph, catalog=catalog)
        assert calls[0] == 0
        # Each pair of adjacent trees is estimated once: the 29 edges,
        # then the hub's tree against the 28, 27, ... leaves left. A
        # scan of every pair in every round tested 4,495.
        assert result.counters.inner_counter == 435

    def test_idp_builds_trees_only_for_winners(self, monkeypatch):
        graph = chain_graph(16, rng=random.Random(4))
        catalog = random_catalog(16, random.Random(4))
        calls = count_calls(monkeypatch, JoinTree, "join")
        result = IterativeDP(4).optimize(graph, catalog=catalog)
        # What the IDP-1 reference prices over the same rules.
        assert result.counters.create_join_tree_calls == 121
        # Four committed blocks of 3 joins and a final plan of 3, i.e.
        # n - 1. The old loop built a tree for each of 171 winning
        # pricings.
        assert calls[0] == 15

    def test_idp_offers_only_pairs_through_the_new_block(self):
        graph, catalog = fk_instance("chain", 200)
        result = IterativeDP(7).optimize(graph, catalog=catalog)
        # The first pass offers the chain's 4,109 pairs of at most 7
        # relations; each of the 33 later passes only those through its
        # compound node. Re-running every pass offered 69,070.
        assert result.counters.inner_counter == 6570

    def test_lindp_sweep_stops_at_the_incumbent(self):
        graph, catalog = fk_instance("chain", 57)
        result = LinDP().optimize(graph, catalog=catalog)
        # Five orderings; sweeping every split of every finite interval
        # checked 87,196.
        assert result.counters.extra["lindp_splits"] == 1012

    def test_lindp_normalizes_each_directed_edge_once(self, monkeypatch):
        graph, catalog = light_instance("tree", 40)
        calls = count_calls(monkeypatch, ikkbz_module, "_normalize")
        result = LinDP().optimize(graph, catalog=catalog)
        # One pass per root normalized n(n - 1) = 1,560 chains.
        assert calls[0] <= 2 * 39
        # Every root still counts its 39 child steps.
        assert result.counters.inner_counter - result.counters.extra[
            "lindp_splits"
        ] == 40 * 39

    def test_lindp_tables_and_proxy_multiply_inline(self, monkeypatch):
        # Past ALL_ROOTS_LIMIT, so the proxy ranks all 40 roots.
        graph, catalog = light_instance("tree", 40)
        callers: list[str] = []
        original = QueryGraph.crossing_selectivity

        def recorded(self, left, right):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(self, left, right)

        monkeypatch.setattr(QueryGraph, "crossing_selectivity", recorded)
        LinDP().optimize(graph, catalog=catalog)
        # GOO and the winner's rebuild still estimate through the graph.
        assert callers
        # One call per table cell and per proxy step before.
        assert not {"_prefix_tables", "_proxy_cost"} & set(callers)

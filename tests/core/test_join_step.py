"""The set-level DP step and the list-built pair stream, against references.

:meth:`PlanTable.join_step` prices csg-cmp pairs on relation sets and
builds only the returned plan's trees; the enumeration routines of
:mod:`repro.graph.subgraphs` build each recursion level as a list. Both
must reproduce the copies in :mod:`tests.core.reference_dpccp` exactly:

* DPccp against the old DPccp loop over the old stream and table: the
  same plan (``==``), ``repr`` of its cost, counters, table size,
  probes and improvements, under C_out and the disk model, on plain
  and k-best tables (the same ranks), with tied and overflowing
  statistics, and on a model whose cardinality memo GOO filled first;
* the other DP enumerators' loops on the new table against the same
  loops on the old table (whose step is the old priced ``consider``);
* the pair stream, its per-csg grouping and the three routines, set
  for set and in order.

The work pins count calls, not time: DPccp under C_out builds one join
node per join of the plan it returns, translates each enumerated set at
most once on a graph that is not BFS-numbered, and finds each csg's
complements from the reach the csg enumeration carried, without
walking the csg through ``QueryGraph.neighborhood``.
"""

from __future__ import annotations

import random

import pytest

import repro.core.dpccp as dpccp_module
from repro.catalog.catalog import Catalog
from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.core.base import PlanTable
from repro.core.dpall import DPall
from repro.core.dpccp import DPccp
from repro.core.dpconv import DPconv
from repro.core.dpsize import DPsize
from repro.core.dpsub import DPsub
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.kbest import KBestPlanTable, KBestTracker
from repro.core.leftdeep import LeftDeepDP
from repro.core.variants import DPsizeBasic, DPsubBasic
from repro.cost.cout import CoutModel
from repro.cost.disk import DiskCostModel
from repro.graph.counting import count_csg
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    random_tree_graph,
    star_graph,
)
from repro.graph.querygraph import QueryGraph
from repro.graph.subgraphs import (
    enumerate_cmp,
    enumerate_csg,
    enumerate_csg_cmp_lists,
    enumerate_csg_cmp_pairs,
    enumerate_csg_rec,
)
from repro.plans.jointree import JoinTree
from tests.core import reference_dpccp as ref

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
        # Dense 14-relation graphs cost DPccp seconds per model here.
        density = 0.6 if n <= 11 else 0.15
        return random_connected_graph(n, rng, rng.random() * density)
    return _SHAPED[shape](n, rng=rng)


def light_instance(shape: str, n: int):
    """Random selectivities and ``random_catalog`` statistics."""
    rng = random.Random(f"{shape}/{n}")
    return shaped(shape, n, rng), random_catalog(n, rng)


def tied_instance(shape: str, n: int):
    """Equal cardinalities and selectivities: many candidates tie."""
    return _SHAPED[shape](n, selectivity=0.01), uniform_catalog(n, 1000.0)


def overflowing_instance(shape: str, n: int):
    """Cardinalities of 1e60..1e160: sets of three or more reach inf."""
    rng = random.Random(f"overflow/{shape}/{n}")
    graph = shaped(shape, n, rng)
    catalog = Catalog.from_cardinalities(
        [10.0 ** rng.uniform(60, 160) for _ in range(n)]
    )
    return graph, catalog


def _sizes(shape: str) -> tuple[int, ...]:
    # DPccp on a clique pays #ccp = O(3^n) twice here (new and old).
    return (2, 3, 5, 8) if shape == "clique" else (2, 3, 5, 8, 11, 14)


#: (id, builder, args) for DPccp: the paper's shapes, trees and random
#: graphs with n = 2..14, plus ties and overflowing estimates.
DPCCP_CASES = [
    *(
        (f"{shape}-{n}", light_instance, (shape, n))
        for shape in ("chain", "cycle", "star", "clique", "tree", "random")
        for n in _sizes(shape)
        if not (shape == "cycle" and n < 3)
    ),
    *(
        (f"tied-{shape}-{n}", tied_instance, (shape, n))
        for shape, n in (
            ("chain", 6), ("chain", 12), ("cycle", 11), ("star", 9),
            ("clique", 7),
        )
    ),
    *(
        (f"overflow-{shape}-{n}", overflowing_instance, (shape, n))
        for shape, n in (
            ("chain", 12), ("cycle", 10), ("star", 10), ("clique", 7),
            ("random", 9),
        )
    ),
]

#: Smaller instances for the O(2^n)..O(3^n) enumerators.
SMALL_CASES = [
    case for case in DPCCP_CASES
    if case[2][1] <= (6 if case[2][0] == "clique" else 8)
]


def params(cases):
    return [pytest.param(case, id=case[0]) for case in cases]


def instance(case):
    _key, builder, args = case
    return builder(*args)


def assert_same_result(result, reference) -> None:
    assert result.plan == reference.plan
    assert repr(result.cost) == repr(reference.cost)
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert result.table_size == reference.table_size
    assert result.table_probes == reference.table_probes
    assert result.table_improvements == reference.table_improvements


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("case", params(DPCCP_CASES))
def test_dpccp_matches_reference(case, model):
    graph, catalog = instance(case)
    build = MODELS[model]
    result = DPccp().optimize(graph, cost_model=build(graph, catalog))
    reference = ref.ReferenceDPccp().optimize(
        graph,
        cost_model=build(graph, catalog),
        plan_table_factory=ref.ReferencePlanTable,
    )
    assert_same_result(result, reference)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize(
    "case", params([c for c in DPCCP_CASES if c[2][1] <= 11])
)
def test_dpccp_kbest_ranks_match_reference(case, model):
    graph, catalog = instance(case)
    build = MODELS[model]
    root = graph.all_relations
    tracker, reference_tracker = KBestTracker(4), KBestTracker(4)
    result = DPccp().optimize(
        graph,
        cost_model=build(graph, catalog),
        plan_table_factory=lambda: KBestPlanTable(root, tracker),
    )
    reference = ref.ReferenceDPccp().optimize(
        graph,
        cost_model=build(graph, catalog),
        plan_table_factory=lambda: ref.ReferenceKBestPlanTable(
            root, reference_tracker
        ),
    )
    assert_same_result(result, reference)
    assert tracker.ranked() == reference_tracker.ranked()
    assert [repr(plan.cost) for plan in tracker.ranked()] == [
        repr(plan.cost) for plan in reference_tracker.ranked()
    ]
    assert (tracker.offered, tracker.admitted) == (
        reference_tracker.offered,
        reference_tracker.admitted,
    )


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize(
    "case", params([c for c in DPCCP_CASES if c[2][1] >= 5])
)
def test_dpccp_after_goo_filled_the_memo(case, model):
    """GOO's splits fix some sets' estimates before DPccp visits them."""
    graph, catalog = instance(case)
    build = MODELS[model]
    model_object, reference_model = build(graph, catalog), build(graph, catalog)
    GreedyOperatorOrdering().optimize(graph, cost_model=model_object)
    GreedyOperatorOrdering().optimize(graph, cost_model=reference_model)
    result = DPccp().optimize(graph, cost_model=model_object)
    reference = ref.ReferenceDPccp().optimize(
        graph,
        cost_model=reference_model,
        plan_table_factory=ref.ReferencePlanTable,
    )
    assert_same_result(result, reference)


ENUMERATORS = {
    "DPsize": DPsize,
    "DPsub": DPsub,
    "DPall": DPall,
    "LeftDeepDP": LeftDeepDP,
    "DPsize-basic": DPsizeBasic,
    "DPsub-basic": DPsubBasic,
    "DPconv": lambda: DPconv(backend="python"),
}


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(ENUMERATORS))
@pytest.mark.parametrize("case", params(SMALL_CASES))
def test_enumerator_loops_match_old_table(case, name, model):
    """Each loop on the new table equals the same loop on the old one."""
    graph, catalog = instance(case)
    build = MODELS[model]
    algorithm = ENUMERATORS[name]
    result = algorithm().optimize(graph, cost_model=build(graph, catalog))
    reference = algorithm().optimize(
        graph,
        cost_model=build(graph, catalog),
        plan_table_factory=ref.ReferencePlanTable,
    )
    assert_same_result(result, reference)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_dpall_with_cross_products_matches_old_table(model):
    graph = QueryGraph(5, [(0, 1, 0.1), (2, 3, 0.2)])
    catalog = random_catalog(5, random.Random(9))
    build = MODELS[model]
    result = DPall().optimize(graph, cost_model=build(graph, catalog))
    reference = DPall().optimize(
        graph,
        cost_model=build(graph, catalog),
        plan_table_factory=ref.ReferencePlanTable,
    )
    assert_same_result(result, reference)


def stream_graphs():
    rng = random.Random(17)
    graphs = []
    for n in (1, 2, 3, 4, 6, 8, 10):
        graphs += [chain_graph(n), star_graph(n)]
        if n >= 3:
            graphs.append(cycle_graph(n))
        if n <= 8:
            graphs.append(clique_graph(n))
        graphs += [random_tree_graph(n, rng) for _ in range(2)]
        graphs += [
            random_connected_graph(n, rng, rng.random() * 0.7) for _ in range(3)
        ]
    return [
        graph if graph.is_bfs_numbered() else graph.bfs_renumbered()[0]
        for graph in graphs
    ]


@pytest.mark.parametrize("max_union_size", [None, 2, 3, 4, 5, 6, 7])
def test_pair_stream_matches_reference(max_union_size):
    for graph in stream_graphs():
        assert list(
            enumerate_csg_cmp_pairs(graph, max_union_size=max_union_size)
        ) == list(
            ref.reference_csg_cmp_pairs(graph, max_union_size=max_union_size)
        )


@pytest.mark.parametrize("max_union_size", [None, 1, 2, 3, 5, 7])
def test_csg_cmp_lists_group_the_reference_stream(max_union_size):
    for graph in stream_graphs():
        grouped = list(
            enumerate_csg_cmp_lists(graph, max_union_size=max_union_size)
        )
        csg_cap = None if max_union_size is None else max_union_size - 1
        assert [left for left, _ in grouped] == list(
            ref.reference_csg(graph, max_size=csg_cap)
        )
        assert [
            (left, right) for left, rights in grouped for right in rights
        ] == list(
            ref.reference_csg_cmp_pairs(graph, max_union_size=max_union_size)
        )


@pytest.mark.parametrize("max_size", [None, 1, 2, 3, 5])
def test_routines_match_reference(max_size):
    for graph in stream_graphs():
        csgs = list(enumerate_csg(graph, max_size=max_size))
        assert csgs == list(ref.reference_csg(graph, max_size=max_size))
        for subset in csgs:
            assert list(enumerate_cmp(graph, subset, max_size=max_size)) == list(
                ref.reference_cmp(graph, subset, max_size=max_size)
            )
            excluded = ((subset & -subset) << 1) - 1 | subset
            assert list(
                enumerate_csg_rec(graph, subset, excluded, max_size)
            ) == list(ref.reference_csg_rec(graph, subset, excluded, max_size))


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
    def test_dpccp_builds_only_the_returned_plans_joins(self, monkeypatch):
        graph = star_graph(12, rng=random.Random(0))
        catalog = random_catalog(12, random.Random(0))
        calls = count_calls(monkeypatch, JoinTree, "join")
        result = DPccp().optimize(graph, catalog=catalog)
        assert result.counters.ono_lohman_counter == 11_264
        # The old step built a node for each of its 3,940 wins.
        assert calls[0] == 11

    def test_dpccp_translates_each_set_at_most_once(self, monkeypatch):
        graph = cycle_graph(12, rng=random.Random(1))
        assert not graph.is_bfs_numbered()
        calls = count_calls(monkeypatch, dpccp_module, "_translate_mask")
        catalog = random_catalog(12, random.Random(1))
        result = DPccp().optimize(graph, catalog=catalog)
        # The old loop translated both halves of every pair: 2 * 726.
        assert result.counters.ono_lohman_counter == 726
        assert calls[0] <= count_csg(graph) == 133

    def test_dpccp_carries_each_csgs_reach(self, monkeypatch):
        graph = star_graph(14, rng=random.Random(2))
        catalog = random_catalog(14, random.Random(2))
        assert count_csg(graph) == 8_205
        calls = count_calls(monkeypatch, QueryGraph, "neighborhood")
        result = DPccp().optimize(graph, catalog=catalog)
        assert result.counters.ono_lohman_counter == 53_248
        # The old stream walked every csg once more to find its
        # complements: 8,221 calls.
        assert calls[0] < 100

    def test_set_entries_build_on_demand(self):
        graph = chain_graph(4, selectivity=0.1)
        model = CoutModel(graph, uniform_catalog(4, 100.0))
        table = PlanTable()
        for index in range(4):
            table.register(model.leaf(index))
        step = table.join_step(model)
        assert step(0b0001, 0b0010)
        assert step(0b0011, 0b0100)
        assert not step(0b0011, 0b0100)  # a tie keeps the incumbent
        plan = table[0b0111]
        pair = model.join(model.leaf(0), model.leaf(1))
        assert plan == model.join(pair, model.leaf(2))
        assert len(table) == 6 and 0b0111 in table
        # The priced step compares with the set entry's cost: a tie.
        assert table.consider(model, model.leaf(2), table[0b0011]) is False
        assert (table.probes, table.improvements) == (4 + 3 + 1, 4 + 2)

"""K-best capture: rank-1 bit-identity, rank ordering, determinism.

The contract that makes :func:`repro.core.kbest.k_best_plans` safe to
enable inside the caching service: asking for k plans must not perturb
the plan the service would have computed anyway. Rank 1 is therefore
pinned *bit-identical* — same tree, same cost, same paper counters —
to a plain ``optimize`` call for every exact enumerator, and ranks are
pinned to the documented ``(cost, fingerprint)`` total order.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core import make_algorithm
from repro.core.dpccp import DPccp
from repro.core.kbest import (
    MAX_K,
    KBestPlanTable,
    KBestTracker,
    k_best_plans,
    plan_fingerprint,
)
from repro.errors import OptimizerError
from repro.graph.generators import graph_for_topology
from repro.plans.jointree import JoinTree

#: Every exact enumerator in the registry (heuristics rank by their own
#: search space and are exercised through the service, not here).
#: leftdeep is exact within the left-deep space, which is the contract
#: its rank 1 must preserve.
EXACT_ALGORITHMS = (
    "dpsize",
    "dpsub",
    "dpccp",
    "dpconv",
    "dpsize-basic",
    "dpsub-basic",
    "dpall",
    "topdown",
    "exhaustive",
    "leftdeep",
    "adaptive",
)

#: n=10 on the sparse paper topologies per the acceptance bar; cliques
#: capped at n=8 to keep the slowest enumerators in test budget.
INSTANCES = (
    ("chain", 10),
    ("star", 10),
    ("cycle", 10),
    ("clique", 8),
)


def _instance(topology: str, n: int):
    rng = random.Random(1000 + n)
    graph = graph_for_topology(topology, n, rng=rng)
    catalog = random_catalog(n, rng)
    return graph, catalog


def _leaf(index: int, cardinality: float) -> JoinTree:
    return JoinTree.leaf(index, cardinality=cardinality)


def _join(left: JoinTree, right: JoinTree, cost: float) -> JoinTree:
    return JoinTree.join(
        left, right, cardinality=cost, cost=cost, operator="HJ"
    )


# ----------------------------------------------------------------------
# Rank-1 bit-identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS)
@pytest.mark.parametrize("topology,n", INSTANCES)
def test_rank1_bit_identical_to_plain_optimize(
    algorithm: str, topology: str, n: int
) -> None:
    graph, catalog = _instance(topology, n)
    reference = make_algorithm(algorithm).optimize(graph, catalog=catalog)
    kbest = k_best_plans(graph, k=4, algorithm=algorithm, catalog=catalog)

    assert kbest.plans[0] is kbest.result.plan
    # Bit-identical: same structure, same cost, same paper counters.
    assert plan_fingerprint(kbest.result.plan) == plan_fingerprint(
        reference.plan
    )
    assert kbest.result.cost == reference.cost
    assert kbest.result.plan.cost == reference.plan.cost
    assert (
        kbest.result.counters.as_dict() == reference.counters.as_dict()
    ), algorithm
    assert kbest.result.algorithm == reference.algorithm


@pytest.mark.parametrize("topology,n", INSTANCES)
def test_ranks_are_cost_ordered_with_fingerprint_tiebreak(
    topology: str, n: int
) -> None:
    graph, catalog = _instance(topology, n)
    kbest = k_best_plans(graph, k=6, algorithm="dpccp", catalog=catalog)
    assert 1 <= kbest.k_available <= 6
    # Ranks 2..k follow the documented strict (cost, fingerprint)
    # total order; rank 1 is the algorithm's own champion, so only
    # its cost bound is guaranteed, not its tie-break position.
    assert kbest.plans[0].cost <= kbest.plans[-1].cost
    ordered = [
        (plan.cost, plan_fingerprint(plan)) for plan in kbest.plans[1:]
    ]
    assert ordered == sorted(ordered)
    assert len(set(fingerprint for _, fingerprint in ordered)) == len(ordered)
    # No alternative undercuts the optimum, and none repeats rank 1.
    first = plan_fingerprint(kbest.plans[0])
    for plan in kbest.plans[1:]:
        assert plan.cost >= kbest.plans[0].cost
        assert plan_fingerprint(plan) != first


@pytest.mark.parametrize("algorithm", ("dpccp", "dpconv"))
def test_kbest_is_deterministic_across_runs(algorithm: str) -> None:
    graph, catalog = _instance("cycle", 8)
    runs = [
        k_best_plans(graph, k=5, algorithm=algorithm, catalog=catalog)
        for _ in range(2)
    ]
    fingerprints = [
        [plan_fingerprint(plan) for plan in run.plans] for run in runs
    ]
    assert fingerprints[0] == fingerprints[1]
    assert [p.cost for p in runs[0].plans] == [p.cost for p in runs[1].plans]


# ----------------------------------------------------------------------
# Capture modes
# ----------------------------------------------------------------------


def test_capture_mode_per_algorithm() -> None:
    graph, catalog = _instance("star", 7)
    assert (
        k_best_plans(graph, k=3, algorithm="dpccp", catalog=catalog).capture
        == "inline"
    )
    # DPconv's value-only sweep cannot stream root candidates; it gets
    # the post-hoc DPccp capture pass.
    assert (
        k_best_plans(graph, k=3, algorithm="dpconv", catalog=catalog).capture
        == "post-hoc"
    )
    assert (
        k_best_plans(graph, k=1, algorithm="dpccp", catalog=catalog).capture
        == "single"
    )


def test_posthoc_alternatives_match_inline() -> None:
    # Both capture modes rank the same candidate space (top joins of
    # DP-optimal subplans), so alternatives must agree plan-for-plan.
    graph, catalog = _instance("chain", 9)
    inline = k_best_plans(graph, k=5, algorithm="dpccp", catalog=catalog)
    posthoc = k_best_plans(graph, k=5, algorithm="dpconv", catalog=catalog)
    assert [plan_fingerprint(p) for p in inline.plans[1:]] == [
        plan_fingerprint(p) for p in posthoc.plans[1:]
    ]


def test_k_bounds_are_validated() -> None:
    graph, catalog = _instance("chain", 4)
    for bad in (0, -1, MAX_K + 1):
        with pytest.raises(OptimizerError):
            k_best_plans(graph, k=bad, catalog=catalog)


def test_single_relation_query_yields_one_rank() -> None:
    graph, catalog = _instance("chain", 1)
    kbest = k_best_plans(graph, k=4, catalog=catalog)
    assert kbest.k_available == 1
    assert kbest.capture == "single"
    assert kbest.plans[0].is_leaf


# ----------------------------------------------------------------------
# Tracker and table units
# ----------------------------------------------------------------------


def test_tracker_keeps_k_cheapest_deduplicated() -> None:
    tracker = KBestTracker(2)
    a, b = _leaf(0, 10.0), _leaf(1, 20.0)
    cheap = _join(a, b, 5.0)
    mid = _join(b, a, 7.0)
    dear = _join(_leaf(2, 5.0), a, 9.0)

    assert tracker.offer(dear)
    assert tracker.offer(cheap)
    assert not tracker.offer(cheap)  # structural duplicate
    assert tracker.offer(mid)  # displaces `dear`
    assert not tracker.qualifies(9.5)
    assert tracker.qualifies(7.0)  # ties still qualify
    assert [plan.cost for plan in tracker.ranked()] == [5.0, 7.0]
    assert tracker.offered == 4
    assert tracker.admitted == 3
    assert len(tracker) == 2


def test_tracker_equal_cost_tiebreak_is_fingerprint_order() -> None:
    tracker = KBestTracker(1)
    a, b = _leaf(0, 10.0), _leaf(1, 20.0)
    one, two = _join(a, b, 5.0), _join(b, a, 5.0)
    first, second = sorted(
        (one, two), key=plan_fingerprint
    )  # fingerprint order, not offer order
    assert tracker.offer(second)
    tracker.offer(first)  # earlier fingerprint wins the tie
    assert tracker.ranked() == [first]
    # Offering the loser again changes nothing.
    assert not tracker.offer(second)
    assert tracker.ranked() == [first]


def test_tracker_validates_k() -> None:
    for bad in (0, MAX_K + 1):
        with pytest.raises(OptimizerError):
            KBestTracker(bad)


def test_kbest_table_preserves_base_semantics_and_captures() -> None:
    from repro.cost.cout import CoutModel

    tracker = KBestTracker(4)
    table = KBestPlanTable(root_mask=0b11, tracker=tracker)
    graph, catalog = _instance("chain", 2)
    model = CoutModel(graph, catalog)
    a, b = model.leaf(0), model.leaf(1)
    table.register(a)
    table.register(b)
    assert table.consider(model, a, b)
    incumbent = table.get(0b11)
    assert incumbent is not None
    # The commuted candidate has equal C_out cost: the incumbent keeps
    # the slot (base tie-break), but the tracker captures both shapes.
    table.consider(model, b, a)
    assert table.get(0b11) is incumbent
    assert len(tracker) == 2
    # Counter semantics match the base table: register and consider
    # each count one probe (2 leaves + 2 candidates), and the losing
    # commuted candidate is not an improvement.
    assert table.probes == 4
    assert table.improvements == 3

    with pytest.raises(OptimizerError):
        KBestPlanTable(root_mask=0, tracker=tracker)


def count_dpccp_runs(monkeypatch) -> list[int]:
    """Count ``DPccp.optimize`` calls while the test runs."""
    calls = [0]
    optimize = DPccp.optimize

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return optimize(self, *args, **kwargs)

    monkeypatch.setattr(DPccp, "optimize", counted)
    return calls


class TestPostHocGuard:
    """Post-hoc capture runs DPccp only where the router would."""

    def test_small_query_gets_posthoc_ranks(self):
        rng = random.Random(5)
        graph = graph_for_topology("chain", 8, rng=rng)
        catalog = random_catalog(8, rng)
        outcome = k_best_plans(graph, k=2, algorithm="goo", catalog=catalog)
        assert outcome.capture == "post-hoc"
        assert outcome.k_available == 2

    def test_large_query_serves_rank_one_only(self):
        # One relation past the router's chain ceiling (22): a DPccp
        # capture pass here is exactly the enumeration the ladder
        # routes large queries around, so ranks 2..k are declined, not
        # stalled.
        n = 23
        rng = random.Random(5)
        graph = graph_for_topology("chain", n, rng=rng)
        catalog = random_catalog(n, rng)
        outcome = k_best_plans(graph, k=2, algorithm="goo", catalog=catalog)
        assert outcome.capture == "single"
        assert outcome.k_available == 1
        assert outcome.plans == (outcome.result.plan,)

    def test_inline_capture_unaffected_by_guard(self):
        # Capturing enumerators keep their in-run ranks at any size the
        # primary run itself can afford.
        rng = random.Random(5)
        graph = graph_for_topology("chain", 8, rng=rng)
        catalog = random_catalog(8, rng)
        outcome = k_best_plans(graph, k=2, algorithm="dpccp", catalog=catalog)
        assert outcome.capture == "inline"
        assert outcome.k_available == 2

    @pytest.mark.parametrize("topology,n", [("clique", 12), ("star", 16)])
    def test_router_gate_skips_capture(self, monkeypatch, topology, n):
        # The router plans a clique-12 with DPconv and a star-16 with
        # LinDP; neither gets a DPccp capture pass.
        rng = random.Random(5)
        graph = graph_for_topology(topology, n, rng=rng)
        catalog = random_catalog(n, rng)
        runs = count_dpccp_runs(monkeypatch)
        outcome = k_best_plans(
            graph, k=2, algorithm="adaptive", catalog=catalog
        )
        assert runs[0] == 0
        assert outcome.capture == "single"
        assert outcome.plans == (outcome.result.plan,)

    def test_chain_within_router_ceiling_gets_posthoc_ranks(
        self, monkeypatch
    ):
        # The router plans a chain-20 with DPccp, so GOO's rank 1 gets
        # ranks 2..k from one capture pass.
        rng = random.Random(5)
        graph = graph_for_topology("chain", 20, rng=rng)
        catalog = random_catalog(20, rng)
        runs = count_dpccp_runs(monkeypatch)
        outcome = k_best_plans(graph, k=3, algorithm="goo", catalog=catalog)
        assert runs[0] == 1
        assert outcome.capture == "post-hoc"
        assert outcome.k_available == 3

"""Differential test battery: every exact enumerator agrees, always.

Property-based (hypothesis) differential testing over random
chain/cycle/star/clique/random-connected instances up to n=10: DPsize,
DPsub, DPccp, DPconv (every sweep backend), DPhyp, top-down
branch-and-bound and the exhaustive oracle must return *identical*
optimal costs, and the polynomial heuristics (GOO, QuickPick) must
never beat the optimum. This is the battery the obs layer's counters
are validated against — an enumeration bug (missed csg-cmp-pair, wrong
DP order, broken pruning bound, a lattice-sweep addressing slip)
surfaces here as a cost disagreement before it can corrupt any counter
analysis.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.synthetic import random_catalog
from repro.core import (
    DPccp,
    DPconv,
    DPsize,
    DPsub,
    ExhaustiveOptimizer,
    GreedyOperatorOrdering,
    QuickPick,
    TopDownBB,
)
from repro.core.dpconv import _numpy_module
from repro.graph.generators import (
    graph_for_topology,
    random_connected_graph,
)
from repro.hyper.dphyp import DPhyp
from repro.hyper.hypergraph import Hypergraph
from repro.plans.visitors import validate_plan

#: The exact algorithms under differential comparison, as
#: (label, factory) pairs — DPconv participates once per sweep backend
#: so the vectorized and stdlib paths are *independently* pinned to the
#: oracle. The exhaustive oracle is deliberately an independent
#: implementation (top-down generate-and-test), so agreement is
#: meaningful evidence.
EXACT_ALGORITHMS: list[tuple[str, "type | object"]] = [
    ("DPsize", DPsize),
    ("DPsub", DPsub),
    ("DPccp", DPccp),
    ("TopDownBB", TopDownBB),
    ("exhaustive", ExhaustiveOptimizer),
    ("DPconv[python]", lambda: DPconv(backend="python")),
]
if _numpy_module() is not None:
    EXACT_ALGORITHMS.append(("DPconv[numpy]", lambda: DPconv(backend="numpy")))

MAX_RELATIONS = 10

TOPOLOGIES = ("chain", "cycle", "star", "clique", "random")


def build_instance(topology: str, n: int, seed: int):
    """One deterministic (graph, catalog) instance."""
    rng = random.Random(seed)
    if topology == "random":
        graph = random_connected_graph(n, rng, rng.random() * 0.7)
    else:
        if topology == "cycle" and n < 3:
            topology = "chain"
        graph = graph_for_topology(topology, n, rng=rng)
    catalog = random_catalog(n, rng)
    return graph, catalog


def optimal_costs(graph, catalog) -> dict[str, float]:
    """Plan cost per exact algorithm, with every plan validated."""
    costs: dict[str, float] = {}
    for label, factory in EXACT_ALGORITHMS:
        result = factory().optimize(graph, catalog=catalog)
        validate_plan(result.plan, graph)
        costs[label] = result.cost
    hyper = Hypergraph.from_query_graph(graph)
    costs["DPhyp"] = DPhyp().optimize(hyper, catalog=catalog).cost
    return costs


instances = st.tuples(
    st.sampled_from(TOPOLOGIES),
    st.integers(min_value=2, max_value=MAX_RELATIONS),
    st.integers(min_value=0, max_value=2**31 - 1),
)


class TestExactAgreement:
    """All six exact enumerators return the same optimal cost."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=instances)
    def test_property_random_instances(self, instance):
        topology, n, seed = instance
        graph, catalog = build_instance(topology, n, seed)
        costs = optimal_costs(graph, catalog)
        reference = costs["exhaustive"]
        for name, cost in costs.items():
            assert cost == pytest.approx(reference), (
                f"{name} disagrees with the exhaustive oracle on "
                f"{topology} n={n} seed={seed}: {cost} != {reference}"
            )

    @pytest.mark.parametrize("topology", ["chain", "cycle", "star", "clique"])
    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_paper_topologies_deterministic(self, topology, n):
        """A fixed grid over the paper's four shapes up to n=10."""
        graph, catalog = build_instance(topology, n, seed=17 * n)
        costs = optimal_costs(graph, catalog)
        reference = costs["exhaustive"]
        for name, cost in costs.items():
            assert cost == pytest.approx(reference), name


class TestHeuristicsNeverBeatOptimal:
    """GOO and QuickPick are valid plans costing >= the DP optimum."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=instances)
    def test_goo_and_quickpick_bounded_below(self, instance):
        topology, n, seed = instance
        graph, catalog = build_instance(topology, n, seed)
        optimum = DPccp().optimize(graph, catalog=catalog).cost
        for heuristic_class in (GreedyOperatorOrdering, QuickPick):
            result = heuristic_class().optimize(graph, catalog=catalog)
            validate_plan(result.plan, graph)
            # >= up to float noise: equality happens all the time on
            # small instances, a genuinely cheaper plan never may.
            assert result.cost >= optimum * (1 - 1e-9), heuristic_class.name

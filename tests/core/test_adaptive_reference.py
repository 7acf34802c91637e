"""The constant-configured router against its knob-configured reference.

:class:`repro.core.adaptive.AdaptiveOptimizer` takes no arguments; its
ceilings are module constants. At the old constructor defaults,
:class:`tests.core.reference_adaptive.ReferenceAdaptiveOptimizer` must
route every graph the same way: the same ``graph_class``, ``rung``,
``algorithm`` and ``degradation_path``. The sizes span n = 1..450 and
include every ceiling and the size just above it; cliques and small
random graphs of every density cover the dense row's boundaries.
"""

from __future__ import annotations

import random

import pytest

from repro.core.adaptive import AdaptiveOptimizer
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    random_tree_graph,
    star_graph,
)
from tests.core.reference_adaptive import ReferenceAdaptiveOptimizer

#: Every ceiling of the routing table (dense 3/4 and 16, general 13,
#: star/tree 14, chain/cycle 22, LinDP degradation 100, LinDP 160, IDP
#: 400), the size just above each, and a spread in between.
SIZES = sorted(
    {1, 2, 3, 4, 5, 8, 13, 14, 15, 16, 17, 22, 23, 30, 57, 99, 100, 101}
    | {130, 159, 160, 161, 250, 399, 400, 401, 450}
)


SHAPES = {
    "chain": lambda n, rng: chain_graph(n, rng=rng),
    "cycle": lambda n, rng: cycle_graph(n, rng=rng),
    "star": lambda n, rng: star_graph(n, rng=rng),
    "tree": random_tree_graph,
    # Sparse enough past 24 relations that building stays cheap.
    "general": lambda n, rng: random_connected_graph(
        n, rng, 0.2 if n <= 24 else 0.02
    ),
}

#: The dense row: cliques, and random graphs just short of one.
DENSE = {
    "clique": lambda n, rng: clique_graph(n, rng=rng),
    "near-clique": lambda n, rng: random_connected_graph(n, rng, 0.95),
}

CASES = [
    pytest.param(shape, n, id=f"{shape}-{n}")
    for shape in SHAPES
    for n in SIZES
    if not (shape == "cycle" and n < 3)
] + [
    pytest.param(shape, n, id=f"{shape}-{n}")
    for shape in DENSE
    for n in range(1, 25)
]


def build(shape: str, n: int):
    rng = random.Random(f"{shape}/{n}")
    return {**SHAPES, **DENSE}[shape](n, rng)


@pytest.fixture(scope="module")
def routers():
    return AdaptiveOptimizer(), ReferenceAdaptiveOptimizer()


@pytest.mark.parametrize("shape,n", CASES)
def test_routes_like_reference(routers, shape, n):
    router, reference = routers
    graph = build(shape, n)
    decision, expected = router.route(graph), reference.route(graph)
    assert router.graph_class(graph) == reference.graph_class(graph)
    assert decision.graph_class == expected.graph_class
    assert decision.n_relations == expected.n_relations == n
    assert decision.rung == expected.rung
    assert decision.algorithm == expected.algorithm
    assert router.degradation_path(graph) == reference.degradation_path(graph)

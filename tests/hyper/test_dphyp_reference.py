"""DPhyp against its verbatim pre-``PlanTable`` copy.

:mod:`tests.hyper.reference_dphyp` holds DPhyp as it was when it kept
a dict table with its own price-and-compare step. The production
enumerator, which fills a ``PlanTable`` through its join step, must
return the same plan (``==``), the same ``repr`` of its cost, the same
counters, table size and table probes, on random hypergraphs with a
complex hyperedge and on simple graphs embedded as hypergraphs (with
random statistics, and with equal ones so that candidates tie), under
C_out and an asymmetric model.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    star_graph,
)
from repro.hyper import DPhyp, HyperCoutModel, Hypergraph
from tests.hyper import reference_dphyp as ref
from tests.hyper.test_asymmetric import LopsidedHyperModel, random_hypergraph

MODELS = {"cout": HyperCoutModel, "lopsided": LopsidedHyperModel}

_SHAPED = {
    "chain": chain_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "clique": clique_graph,
}


def random_instance(seed: int):
    rng = random.Random(9100 + seed)
    n = rng.randint(3, 8)
    return random_hypergraph(rng, n), random_catalog(n, rng)


def embedded_instance(shape: str, n: int):
    rng = random.Random(f"{shape}/{n}")
    graph = _SHAPED[shape](n, rng=rng)
    return Hypergraph.from_query_graph(graph), random_catalog(n, rng)


def tied_instance(shape: str, n: int):
    """Equal cardinalities and selectivities: many candidates tie."""
    graph = _SHAPED[shape](n, selectivity=0.01)
    return Hypergraph.from_query_graph(graph), uniform_catalog(n, 1000.0)


CASES = [
    *(
        pytest.param(random_instance, (seed,), id=f"random-{seed}")
        for seed in range(100)
    ),
    *(
        pytest.param(builder, (shape, n), id=f"{prefix}{shape}-{n}")
        for prefix, builder in (("", embedded_instance), ("tied-", tied_instance))
        for shape in _SHAPED
        for n in range(3, 10)
    ),
]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("builder,args", CASES)
def test_dphyp_matches_reference(builder, args, model):
    hypergraph, catalog = builder(*args)
    build = MODELS[model]
    result = DPhyp().optimize(hypergraph, cost_model=build(hypergraph, catalog))
    reference = ref.DPhyp().optimize(
        hypergraph, cost_model=build(hypergraph, catalog)
    )
    assert result.plan == reference.plan
    assert repr(result.cost) == repr(reference.cost)
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert result.table_size == reference.table_size
    assert result.table_probes == reference.table_probes

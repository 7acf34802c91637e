"""DPconv's numpy kernels against their references, plus work pins.

The numpy backend's connectivity table, cardinality table and layer
sweep must return exactly what the copies in
:mod:`tests.core.reference_dpconv` return: byte-equal tables, byte-equal
``dp`` and ``split`` arrays, and so the same plan (``==``), the same
``repr`` of its cost, the same counters and the same table size. The
instances cover chain, cycle, star, clique, tree and random connected
graphs with 2 to 16 relations, under random statistics and under
uniform ones, where many splits tie and the first minimum must win.

The work pins count numpy calls, not time: each layer of the lattice,
and each chunk of rows within it, costs a bounded number of calls
however many splits its sets have.
"""

from __future__ import annotations

import random
from array import array
from math import comb

import pytest

import repro.core.dpconv as dpconv_module
from repro.catalog.synthetic import random_catalog, uniform_catalog
from repro.core.base import CounterSet
from repro.core.dpconv import DPconv
from repro.cost.cout import CoutModel
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_connected_graph,
    random_tree_graph,
    star_graph,
)
from repro.graph.querygraph import QueryGraph
from tests.core import reference_dpconv as ref

numpy = pytest.importorskip("numpy")

SHAPES = ("chain", "cycle", "star", "clique", "tree", "random")

_SHAPED = {
    "chain": chain_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "clique": clique_graph,
}


def shaped(
    shape: str, n: int, rng: random.Random, selectivity: float | None = None
) -> QueryGraph:
    if shape == "tree":
        return random_tree_graph(n, rng, selectivity=selectivity)
    if shape == "random":
        return random_connected_graph(
            n, rng, rng.random() * 0.6, selectivity=selectivity
        )
    if selectivity is not None:
        return _SHAPED[shape](n, selectivity=selectivity)
    return _SHAPED[shape](n, rng=rng)


def random_instance(shape: str, n: int):
    """Random selectivities and ``random_catalog`` statistics."""
    rng = random.Random(f"dpconv/{shape}/{n}")
    return shaped(shape, n, rng), random_catalog(n, rng)


def tied_instance(shape: str, n: int):
    """Equal cardinalities and selectivities: many splits tie."""
    rng = random.Random(f"dpconv-tied/{shape}/{n}")
    return shaped(shape, n, rng, selectivity=0.01), uniform_catalog(n, 1000.0)


def overflowing_instance(shape: str, n: int):
    """Estimates past the float range for sets of over ``n / 2`` relations.

    Those sets cost inf, yet the whole query still splits into two
    finite halves, so the reconstruction finishes. (A set whose every
    split costs inf keeps split 0, and rebuilding it recurses until
    Python stops it, in this code and in the reference alike.)
    """
    rng = random.Random(f"dpconv-overflow/{shape}/{n}")
    cardinality = 10.0 ** (300 // (n // 2))
    return (
        shaped(shape, n, rng, selectivity=1.0),
        uniform_catalog(n, cardinality),
    )


def allowed(shape: str, n: int) -> bool:
    return not (shape == "cycle" and n < 3)


#: Every shape up to 14 relations under random statistics and up to 12
#: tied; the densest shapes, whose layers split into most chunks, to 16.
CASES = [
    pytest.param(make, shape, n, id=f"{kind}-{shape}-{n}")
    for kind, make, sizes, shapes in (
        ("random", random_instance, range(2, 15), SHAPES),
        ("random", random_instance, (15, 16), ("star", "clique", "random")),
        ("tied", tied_instance, range(2, 13), SHAPES),
        ("tied", tied_instance, (14, 16), ("star", "clique")),
        ("overflow", overflowing_instance, (4, 6, 10), ("chain", "cycle", "clique")),
    )
    for shape in shapes
    for n in sizes
    if allowed(shape, n)
]

#: Small enough to run with one row per chunk.
CHUNKED_CASES = [
    pytest.param(make, shape, n, id=f"{kind}-{shape}-{n}")
    for kind, make in (("random", random_instance), ("tied", tied_instance))
    for shape in SHAPES
    for n in (2, 5, 9)
    if allowed(shape, n)
]


def capture(monkeypatch, module, name) -> list:
    """Record what ``module.name`` returns while the test runs."""
    seen: list = []
    original = getattr(module, name)

    def recorded(*args):
        value = original(*args)
        seen.append(value)
        return value

    monkeypatch.setattr(module, name, recorded)
    return seen


def assert_same_result(result, reference) -> None:
    assert result.plan == reference.plan
    assert repr(result.cost) == repr(reference.cost)
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert result.table_size == reference.table_size


def assert_matches_reference(monkeypatch, graph, catalog) -> None:
    connected = capture(monkeypatch, dpconv_module, "_connectivity_numpy")
    cardinality = capture(monkeypatch, dpconv_module, "_cardinality_numpy")
    sweep = capture(monkeypatch, dpconv_module, "_sweep_numpy")
    ref_connected = capture(monkeypatch, ref, "_connectivity_table")
    ref_cardinality = capture(monkeypatch, ref, "_cardinality_table")
    ref_sweep = capture(monkeypatch, ref, "_sweep_numpy")

    result = DPconv(backend="numpy").optimize(graph, catalog=catalog)
    reference = ref.ReferenceDPconv(backend="numpy").optimize(
        graph, catalog=catalog
    )

    assert bytes(connected[0]) == bytes(ref_connected[0])
    assert cardinality[0].tobytes() == ref_cardinality[0].tobytes()
    (dp, split), (ref_dp, ref_split) = sweep[0], ref_sweep[0]
    assert dp.dtype == ref_dp.dtype and split.dtype == ref_split.dtype
    assert dp.tobytes() == ref_dp.tobytes()
    assert split.tobytes() == ref_split.tobytes()
    assert_same_result(result, reference)
    assert result.counters.extra["vectorized"] == 1


@pytest.mark.parametrize("make,shape,n", CASES)
def test_numpy_backend_matches_reference(monkeypatch, make, shape, n):
    assert_matches_reference(monkeypatch, *make(shape, n))


@pytest.mark.parametrize("make,shape,n", CHUNKED_CASES)
def test_one_row_chunks_match_reference(monkeypatch, make, shape, n):
    """Every layer split across as many chunks as it has sets."""
    monkeypatch.setattr(dpconv_module, "_CHUNK_SLOTS", 1)
    assert_matches_reference(monkeypatch, *make(shape, n))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("chunk_slots", [1, 7, 1 << 14])
@pytest.mark.parametrize("seed", range(6))
def test_sweep_matches_reference_on_inf_and_nan(monkeypatch, seed, chunk_slots):
    """Crafted ``h`` and leaf costs holding inf, NaN, 0 and 1e308.

    The sweep keeps the reference's strict-``<`` choice on any table: a
    NaN candidate never wins, sums past the float range are inf, and a
    set with no finite candidate keeps split 0.
    """
    monkeypatch.setattr(dpconv_module, "_CHUNK_SLOTS", chunk_slots)
    rng = random.Random(seed)
    n = 7 + seed % 3
    graph = random_connected_graph(n, rng, 0.5)
    special = [float("inf"), float("nan"), 0.0, 1e308]
    h = [
        rng.choice(special) if rng.random() < 0.2 else rng.uniform(1.0, 1e6)
        for _ in range(1 << n)
    ]
    leaf_costs = [
        rng.choice(special) if rng.random() < 0.2 else rng.uniform(0.0, 10.0)
        for _ in range(n)
    ]
    counters, ref_counters = CounterSet(), CounterSet()
    counters.extra["lattice_passes"] = ref_counters.extra["lattice_passes"] = 0
    connected = ref._connectivity_table(graph, CounterSet())
    table = array("d", h)
    dp, split = dpconv_module._sweep_numpy(
        numpy, n, connected, table, leaf_costs, counters
    )
    ref_dp, ref_split = ref._sweep_numpy(
        numpy, n, connected, table, leaf_costs, ref_counters
    )
    assert dp.tobytes() == ref_dp.tobytes()
    assert split.tobytes() == ref_split.tobytes()
    assert counters.as_dict() == ref_counters.as_dict()


class CountingNumpy:
    """Stands in for numpy and counts every attribute the kernel reads.

    A loop that calls numpy once per split reads ``numpy.<name>`` once
    per call, so the count bounds the number of numpy calls.
    """

    def __init__(self) -> None:
        self.reads = 0

    def __getattr__(self, name: str):
        self.reads += 1
        return getattr(numpy, name)


def chunk_count(n: int, slots_per_row) -> int:
    """Chunks of a clique's layers, every set connected."""
    total = 0
    for k in range(2, n + 1):
        rows = max(1, dpconv_module._CHUNK_SLOTS // slots_per_row(k))
        total += -(-comb(n, k) // rows)
    return total


#: Numpy calls one layer, or one chunk of rows, may cost.
CALLS_PER_STEP = 40


class TestWorkPins:
    """Clique-12: 11 layers, 4094 Gray-code steps in all.

    The split-by-split sweep read numpy about 20,000 times here (five
    calls per step); a whole-layer pass reads it a few hundred times.
    """

    N = 12

    def clique(self):
        rng = random.Random(12)
        graph = clique_graph(self.N, rng=rng)
        return graph, CoutModel(graph, random_catalog(self.N, rng))

    def test_sweep_calls_per_layer_and_chunk(self):
        graph, model = self.clique()
        n = self.N
        connected = ref._connectivity_table(graph, CounterSet())
        h = ref._cardinality_table(graph, model, n)
        counters = CounterSet()
        counters.extra["lattice_passes"] = 0
        proxy = CountingNumpy()
        dpconv_module._sweep_numpy(proxy, n, connected, h, [0.0] * n, counters)
        steps = (n - 1) + chunk_count(n, lambda k: 1 << (k - 1))
        assert proxy.reads <= CALLS_PER_STEP * steps
        assert counters.extra["lattice_passes"] == n - 1
        assert counters.inner_counter == sum(
            comb(n, k) * ((1 << (k - 1)) - 1) for k in range(2, n + 1)
        )

    def test_connectivity_calls_per_layer_and_chunk(self):
        graph, _model = self.clique()
        proxy = CountingNumpy()
        counters = CounterSet()
        connected = dpconv_module._connectivity_numpy(proxy, graph, counters)
        steps = (self.N - 1) + chunk_count(self.N, lambda k: k)
        assert proxy.reads <= CALLS_PER_STEP * steps
        assert connected == ref._connectivity_table(graph, CounterSet())
        assert counters.connectivity_check_failures == 0

    def test_cardinality_calls_per_relation_and_edge(self):
        graph, model = self.clique()
        proxy = CountingNumpy()
        h = dpconv_module._cardinality_numpy(proxy, model, self.N)
        assert proxy.reads <= 10 + 2 * (self.N + len(graph.edges))
        assert h == ref._cardinality_table(graph, model, self.N)

"""Property-based tests over the service layer (hypothesis).

Three properties:

1. A cache hit returns a plan with cost identical (up to float
   round-off) to a fresh optimization of the same query.
2. Isomorphic relabelings of a query hit the same cache entry, and the
   remapped plan is valid and optimal for the relabelled instance.
3. The exact-instance table changes no response and no cache counter:
   ``plan_request`` agrees step by step with a service whose table never
   remembers, so that every request takes the canonical path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.synthetic import random_catalog
from repro.core import optimize
from repro.plans.visitors import validate_plan
from repro.service import PlanService, compute_fingerprint
from repro.graph.generators import graph_for_topology, random_connected_graph
from repro.graph.querygraph import QueryGraph
from repro.service import PlanRequest

TOPOLOGIES = ("chain", "cycle", "star", "clique")


@st.composite
def instances(draw, max_n: int = 10):
    """(graph, catalog) pairs over random and structured topologies."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = draw(st.integers(min_value=2, max_value=max_n))
    kind = draw(st.sampled_from(TOPOLOGIES + ("random",)))
    rng = random.Random(seed)
    if kind == "cycle":
        n = max(n, 3)  # a cycle needs at least three relations
    if kind == "random":
        graph = random_connected_graph(n, rng, rng.random())
    else:
        graph = graph_for_topology(kind, n, rng=rng)
    return graph, random_catalog(n, rng)


class TestCacheHitFidelity:
    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_hit_cost_equals_fresh_optimization(self, instance):
        graph, catalog = instance
        with PlanService(workers=1) as service:
            first = service.plan(graph, catalog)
            second = service.plan(graph, catalog)
            assert not first.cache_hit and second.cache_hit
            direct = optimize(graph, catalog=catalog, algorithm="adaptive")
            assert second.cost == pytest.approx(direct.cost)
            assert second.cost == first.cost
            validate_plan(second.plan, graph)


class TestIsomorphismProperty:
    @given(instances(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_relabelings_share_cache_entry(self, instance, perm_seed):
        graph, catalog = instance
        permutation = list(range(graph.n_relations))
        random.Random(perm_seed).shuffle(permutation)
        twin_graph = graph.relabelled(permutation)
        twin_catalog = catalog.relabelled(permutation)

        # the fingerprints agree before any service is involved
        assert (
            compute_fingerprint(graph, catalog).key
            == compute_fingerprint(twin_graph, twin_catalog).key
        )

        with PlanService(workers=1) as service:
            service.plan(graph, catalog)
            response = service.plan(twin_graph, twin_catalog)
            assert response.cache_hit, "isomorphic twin must hit the cache"
            # the remapped plan is valid for the twin's own numbering
            # and costs exactly what optimizing the twin directly would
            validate_plan(response.plan, twin_graph)
            direct = optimize(
                twin_graph, catalog=twin_catalog, algorithm="adaptive"
            )
            assert response.cost == pytest.approx(direct.cost)


#: Request variants the differential drives; "clear" empties both caches.
#: "same" is listed twice so exact repeats make up much of each sequence.
VARIANTS = ("same", "same", "rebuilt", "renumbered", "renamed", "scaled", "algorithm", "clear")


def variant_requests(graph, catalog, perm_seed: int) -> dict[str, PlanRequest]:
    """One request per variant of a (graph, catalog) instance."""
    n = graph.n_relations
    permutation = list(range(n))
    random.Random(perm_seed).shuffle(permutation)
    same = PlanRequest(graph, catalog)
    return {
        "same": same,
        "rebuilt": PlanRequest(
            QueryGraph(n, list(graph.edges), list(graph.names)), Catalog(list(catalog))
        ),
        "renumbered": PlanRequest(
            graph.relabelled(permutation), catalog.relabelled(permutation)
        ),
        "renamed": PlanRequest(
            QueryGraph(n, graph.edges, [f"s{index}" for index in range(n)]), catalog
        ),
        "scaled": PlanRequest(
            graph,
            Catalog.from_cardinalities(
                [card * (1 + 1e-9) for card in catalog.cardinalities()]
            ),
        ),
        "algorithm": PlanRequest(graph, catalog, algorithm="dpsub"),
    }


class TestExactTierDifferential:
    @given(
        instances(max_n=8),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from((1, 2, 1024)),
        st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_canonical_only_path(self, instance, perm_seed, capacity, steps):
        requests = variant_requests(*instance, perm_seed)
        with PlanService(workers=1, cache_capacity=capacity) as service, PlanService(
            workers=1, cache_capacity=capacity
        ) as reference:
            # The oracle's exact table stays empty: it fingerprints and
            # relabels every request.
            reference._remember_exact = lambda exact_key, hit: None
            for step in steps:
                if step == "clear":
                    service.clear_cache()
                    reference.clear_cache()
                    continue
                request = requests[step]
                got = service.plan_request(request)
                want = reference.plan_request(request)
                assert got.plan == want.plan, step
                assert got.cost == want.cost
                assert got.fingerprint_key == want.fingerprint_key
                assert got.cache_hit == want.cache_hit
                assert got.algorithm == want.algorithm
                ours, theirs = service.cache_stats(), reference.cache_stats()
                assert (ours.hits, ours.misses, ours.evictions, ours.size) == (
                    theirs.hits,
                    theirs.misses,
                    theirs.evictions,
                    theirs.size,
                )

"""Seeded query generators shared by the workloads.

Only inputs come from here: graphs, catalogs, SQL text and schedules.
The seed decides statistics, renumberings and request order; the
shapes and sizes a workload contains are fixed per popularity rank or
deck slot, so two seeds ask the program for the same amount of work
and the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro.catalog.synthetic import random_catalog
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    random_tree_graph,
    star_graph,
)
from repro.graph.querygraph import JoinEdge, QueryGraph

_SHAPED = {
    "chain": chain_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "clique": clique_graph,
}


def _shape(shape: str, n: int, rng: random.Random) -> QueryGraph:
    """Topology with rng selectivities in [0.001, 0.5]."""
    if shape == "tree":
        return random_tree_graph(n, rng)
    if shape == "general":
        # A star with two chords between satellites: a cyclic graph the
        # router sends to DPccp under the "general" ceiling.
        star = star_graph(n, rng=rng)
        a, b, c = rng.sample(range(1, n), 3)
        chords = [JoinEdge(a, b, rng.uniform(0.001, 0.5)), JoinEdge(b, c, rng.uniform(0.001, 0.5))]
        return QueryGraph(n, list(star.edges) + chords)
    return _SHAPED[shape](n, rng=rng)


def light_query(shape: str, n: int, rng: random.Random):
    """Exact-rung instance: ``random_catalog`` stats, rng selectivities."""
    graph = _shape(shape, n, rng)
    return graph, random_catalog(n, rng)


def fk_query(shape: str, n: int, rng: random.Random):
    """Ladder-scale instance with foreign-key selectivities.

    Each edge keeps ``1 / max(|left|, |right|)``, so intermediate
    results stay near the smaller input. With rng selectivities the
    cardinalities of a chain overflow to ``inf`` near 160 relations and
    the greedy rungs fail (see README), which this avoids.
    """
    graph = _shape(shape, n, rng)
    catalog = random_catalog(n, rng)
    edges = [
        JoinEdge(
            edge.left,
            edge.right,
            1.0 / max(catalog.cardinality(edge.left), catalog.cardinality(edge.right), 1.0),
        )
        for edge in graph.edges
    ]
    return QueryGraph(n, edges), catalog


def renumbered(graph: QueryGraph, catalog, rng: random.Random):
    """The same query with its relations in another (seeded) order."""
    order = list(range(graph.n_relations))
    while True:
        rng.shuffle(order)
        if order != sorted(order) or len(order) < 2:
            break
    return graph.relabelled(order), catalog.relabelled(order)


def ranked_templates(shapes, count: int) -> list[tuple[str, int]]:
    """``count`` (shape, n) templates, round-robin over ``shapes``.

    ``shapes`` holds (shape, smallest n, largest n); rank r takes shape
    ``r % len(shapes)`` and walks its size range, so every popularity
    tier mixes shapes and sizes the same way for every seed.
    """
    templates = []
    for rank in range(count):
        shape, low, high = shapes[rank % len(shapes)]
        step = rank // len(shapes)
        templates.append((shape, low + step % (high - low + 1)))
    return templates


def zipf_draws(rng: random.Random, n_items: int, k: int, s: float = 1.1) -> list[int]:
    """``k`` ranks from ``0..n_items-1`` with Zipf(``s``) popularity."""
    cumulative = list(accumulate((rank + 1) ** -s for rank in range(n_items)))
    return rng.choices(range(n_items), cum_weights=cumulative, k=k)


def to_sql(graph: QueryGraph, catalog) -> str:
    """SQL text whose parse is ``graph``/``catalog`` in the same numbering."""
    tables = ", ".join(
        f"t{index} ({catalog.cardinality(index)!r})" for index in range(graph.n_relations)
    )
    predicates = " AND ".join(
        f"t{edge.left}.k{position} = t{edge.right}.k{position} [{edge.selectivity!r}]"
        for position, edge in enumerate(graph.edges)
    )
    return f"SELECT * FROM {tables} WHERE {predicates}"

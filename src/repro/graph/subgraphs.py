"""Connected-subgraph and csg-cmp-pair enumeration (paper §3.2-3.3).

These are the paper's three routines, transcribed faithfully:

* :func:`enumerate_csg` — emit every connected subset of the query
  graph, each exactly once, subsets before supersets (Lemmas 8, 10, 12).
* :func:`enumerate_csg_rec` — the shared recursive expansion step.
* :func:`enumerate_cmp` — for a connected ``S1``, emit every ``S2`` such
  that ``(S1, S2)`` is a csg-cmp-pair, each pair in exactly one
  orientation (Theorem 2).

:func:`enumerate_csg_cmp_pairs` combines them into the pair stream that
drives DPccp. The graph must be BFS-numbered (paper §3.4.1 precondition);
:meth:`QueryGraph.is_bfs_numbered` checks this and
:meth:`QueryGraph.bfs_renumbered` establishes it. DPccp handles the
renumbering transparently; call these directly only on BFS-numbered
graphs (they raise otherwise unless ``trust_numbering=True``).

All sets are bitsets. ``B_i`` from the paper (the nodes with label at
most ``i``) is the bitmask ``(1 << (i + 1)) - 1``.

The recursion of ``EnumerateCsgRec`` runs on an explicit stack, and
each recursion level builds its emissions as one list, so an emitted
set passes through one generator frame however deep it was found. Each
set carries its reach (itself plus its neighbors), so ``N(S)`` is one
AND, for growing a csg and for finding its complements alike.
:func:`enumerate_csg_cmp_lists` builds the complements of one csg as
one list when it reaches that csg; :func:`enumerate_csg` stays lazy per
csg. Emission order is the paper's, set for set.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import GraphError
from repro.graph.querygraph import QueryGraph

__all__ = [
    "enumerate_csg",
    "enumerate_csg_rec",
    "enumerate_cmp",
    "enumerate_csg_cmp_lists",
    "enumerate_csg_cmp_pairs",
]


def _check_numbering(graph: QueryGraph, trust_numbering: bool) -> None:
    if not trust_numbering and not graph.is_bfs_numbered():
        raise GraphError(
            "EnumerateCsg/EnumerateCmp require a BFS-numbered connected "
            "graph (paper §3.4.1); use QueryGraph.bfs_renumbered() first"
        )


def _levels(
    graph: QueryGraph,
    subset: int,
    reach: int,
    excluded: int,
    max_size: int | None,
) -> Iterator[tuple[list[int], list[int]]]:
    """``EnumerateCsgRec(G, S, X)``'s emissions, one list per recursion level.

    One generator frame for the whole recursion: ``pending`` holds the
    expansions still to make, the next on top, so sets leave in the
    recursive order (a level's emissions, then each of them expanded
    depth first) without being re-yielded through one frame per level.
    Each set travels with its reach (the set and all its neighbors,
    ``reach`` for ``subset``), so ``N(S)`` costs one AND instead of a
    walk over the set's relations; each level comes with its sets'
    reaches, in the same order.
    """
    neighbors = graph.neighbor_masks
    pending = [(subset, reach, excluded)]
    while pending:
        grown, reach, excluded = pending.pop()
        headroom = 0
        if max_size is not None:
            headroom = max_size - grown.bit_count()
            if headroom <= 0:
                continue
        neighborhood = reach & ~(grown | excluded)
        if neighborhood == 0:
            continue
        excluded |= neighborhood
        if neighborhood & (neighborhood - 1) == 0:
            # One new neighbor (every level of a chain or cycle).
            grown |= neighborhood
            reach |= neighbors[neighborhood.bit_length() - 1]
            yield [grown], [reach]
            pending.append((grown, reach, excluded))
            continue
        # S ∪ S' for every non-empty S' ⊆ N, ascending. The reach of
        # S ∪ S' extends that of S ∪ (S' minus its lowest node), which
        # ascending order reaches first.
        level = []
        reaches = []
        expansions = []
        reach_of = {0: reach}
        grow = neighborhood & -neighborhood
        while True:
            low = grow & -grow
            grown_reach = reach_of[grow ^ low] | neighbors[low.bit_length() - 1]
            reach_of[grow] = grown_reach
            if max_size is None or grow.bit_count() <= headroom:
                level.append(grown | grow)
                reaches.append(grown_reach)
                expansions.append((grown | grow, grown_reach, excluded))
            if grow == neighborhood:
                break
            grow = (grow - neighborhood) & neighborhood
        yield level, reaches
        pending += reversed(expansions)


def enumerate_csg_rec(
    graph: QueryGraph,
    subset: int,
    excluded: int,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCsgRec(G, S, X)``: grow ``subset`` into larger connected sets.

    Emits ``S ∪ S'`` for every non-empty ``S'`` of the usable
    neighborhood ``N = N(S) \\ X`` (subsets first), then recurses into
    each expansion with ``X ∪ N`` excluded — exactly the paper's two
    consecutive loops, which together guarantee duplicate-freeness and
    a subsets-before-supersets emission order. Each recursion level's
    emissions are built as one list; the recursion itself runs on an
    explicit stack (see :func:`_levels`).

    ``max_size`` prunes the enumeration to sets of at most that many
    nodes (used by bounded DP such as IDP); growth is monotone, so
    pruning loses exactly the over-sized sets and nothing else.
    """
    reach = graph.neighborhood(subset) | subset
    for level, _reaches in _levels(graph, subset, reach, excluded, max_size):
        yield from level


def _csgs(
    graph: QueryGraph, max_size: int | None, first_node_only: bool = False
) -> Iterator[tuple[int, int]]:
    """:func:`enumerate_csg`'s emissions, each with its reach.

    ``first_node_only`` keeps only the enumeration from start node 0,
    which comes last: the csgs that hold node 0.
    """
    if max_size is not None and max_size < 1:
        return
    neighbors = graph.neighbor_masks
    starts = (0,) if first_node_only else range(graph.n_relations - 1, -1, -1)
    for start in starts:
        start_mask = 1 << start
        reach = neighbors[start] | start_mask
        yield start_mask, reach
        lower_or_equal = (start_mask << 1) - 1  # B_i = {v_j | j <= i}
        for level, reaches in _levels(
            graph, start_mask, reach, lower_or_equal, max_size
        ):
            yield from zip(level, reaches)


def enumerate_csg(
    graph: QueryGraph,
    trust_numbering: bool = False,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCsg(G)``: emit every connected subset exactly once.

    Iterates start nodes ``v_i`` in descending index order; the
    enumeration from ``v_i`` excludes all nodes with a smaller label
    (``B_i``), so each connected set is produced exactly once, from its
    minimum-label node (Lemma 9). Emission order is valid for dynamic
    programming: every connected set appears after all its connected
    subsets (Lemma 12). ``max_size`` restricts emissions to sets of at
    most that many nodes.
    """
    _check_numbering(graph, trust_numbering)
    for subset, _reach in _csgs(graph, max_size):
        yield subset


def enumerate_cmp(
    graph: QueryGraph,
    subset: int,
    trust_numbering: bool = False,
    max_size: int | None = None,
) -> Iterator[int]:
    """``EnumerateCmp(G, S1)``: emit all complements forming csg-cmp-pairs.

    For a connected ``subset`` (= ``S1``), yields every connected
    ``S2`` disjoint from ``S1``, joined to ``S1`` by at least one edge,
    containing only nodes with labels greater than ``min(S1)`` — the
    ordering restriction that makes the combined enumeration emit each
    csg-cmp-pair in exactly one orientation.
    """
    _check_numbering(graph, trust_numbering)
    if subset == 0:
        raise GraphError("EnumerateCmp requires a non-empty S1")
    reach = graph.neighborhood(subset) | subset
    yield from _complements(graph, subset, reach, max_size)


def _complements(
    graph: QueryGraph, subset: int, reach: int, max_size: int | None
) -> list[int]:
    """:func:`enumerate_cmp`'s emissions for ``subset``, as one list.

    ``reach`` is ``subset`` plus its neighbors, as the csg enumeration
    carries it.
    """
    complements: list[int] = []
    if max_size is not None and max_size < 1:
        return complements
    min_mask = subset & -subset
    lower_or_equal = (min_mask << 1) - 1  # B_{min(S1)}
    excluded = lower_or_equal | subset
    neighborhood = reach & ~excluded
    neighbors = graph.neighbor_masks
    # Descending node order, per the paper's "for all v_i in N by
    # descending i". Each start node v_i excludes X ∪ B_i(N) — the
    # lower-numbered neighbors, which produce the supersets containing
    # them from their own iterations. (The paper defines B_i(W) for
    # exactly this; transcriptions that exclude all of N here lose
    # every complement spanning two first-generation neighbors, e.g.
    # ({0},{1,2}) on a triangle.)
    while neighborhood:
        start = neighborhood.bit_length() - 1
        start_mask = 1 << start
        complements.append(start_mask)
        # What is left of N is v_i and the nodes below it: B_i(N).
        start_excluded = excluded | neighborhood
        neighborhood ^= start_mask
        if neighbors[start] & ~start_excluded:
            for level, _reaches in _levels(
                graph,
                start_mask,
                neighbors[start] | start_mask,
                start_excluded,
                max_size,
            ):
                complements += level
    return complements


def enumerate_csg_cmp_lists(
    graph: QueryGraph,
    trust_numbering: bool = False,
    max_union_size: int | None = None,
    first_node_only: bool = False,
) -> Iterator[tuple[int, list[int]]]:
    """Every csg ``S1``, in :func:`enumerate_csg` order, with its complements.

    The pairs of :func:`enumerate_csg_cmp_pairs`, in the same order,
    grouped by ``S1``: each csg comes once, with the list of every
    ``S2`` it pairs with (empty when it pairs with none). The list is
    built when ``S1`` is reached, from the reach the csg enumeration
    carried, so ``N(S1)`` is one AND. ``max_union_size`` bounds
    ``|S1| + |S2|`` as for the pair stream.

    ``first_node_only`` keeps the slice of the stream whose csgs hold
    node 0, in the same order. Every ``S2`` lacks node 0 (its nodes
    are above ``min(S1)``), so these are exactly the pairs whose union
    holds node 0: what a DP must add to a table that already holds
    every connected set without node 0 (IDP-1's passes after a
    contraction, which numbers the new compound node 0).
    """
    _check_numbering(graph, trust_numbering)
    bounded = max_union_size is not None
    for left, reach in _csgs(
        graph, max_union_size - 1 if bounded else None, first_node_only
    ):
        headroom = max_union_size - left.bit_count() if bounded else None
        yield left, _complements(graph, left, reach, headroom)


def enumerate_csg_cmp_pairs(
    graph: QueryGraph,
    trust_numbering: bool = False,
    max_union_size: int | None = None,
) -> Iterator[tuple[int, int]]:
    """Stream all csg-cmp-pairs ``(S1, S2)`` in a DP-valid order.

    Each unordered pair ``{S1, S2}`` is emitted exactly once, in the
    orientation chosen by the ordering of the underlying enumerators
    (``min(S1) < min(S2)``). When a pair is emitted, the optimal plans
    of all connected subsets of ``S1`` and of ``S2`` are already
    computable from previously emitted pairs — the property DPccp
    needs (paper §3.1). The stream is lazy per csg ``S1``: its
    complements are built as one list when ``S1`` is reached (see
    :func:`enumerate_csg_cmp_lists`).

    ``max_union_size`` restricts the stream to pairs with
    ``|S1| + |S2| <= max_union_size``, pruning the enumeration itself
    (not just filtering) — the bounded-DP mode IDP uses.
    """
    for left, rights in enumerate_csg_cmp_lists(
        graph, trust_numbering, max_union_size
    ):
        for right in rights:
            yield left, right

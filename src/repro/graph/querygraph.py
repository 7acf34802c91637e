"""The query graph: relations as nodes, join predicates as edges.

This is the central substrate of the library. A :class:`QueryGraph` is an
immutable undirected graph over relations ``R0 .. R{n-1}``; each edge
carries the estimated selectivity of its join predicate. The graph offers
exactly the primitives the paper's algorithms need:

* neighborhoods of single nodes and of node *sets* (paper §3.2:
  ``N(S) = union of N(v) for v in S, minus S``),
* connectedness tests for node sets (the ``connected S`` checks of
  DPsub) and between two sets (the ``S1 connected to S2`` check of
  DPsize/DPsub),
* breadth-first renumbering (the precondition of EnumerateCsg /
  EnumerateCmp, paper §3.4.1).

All node sets are bitsets (see :mod:`repro.bitset`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro import bitset
from repro.errors import GraphError, UnknownRelationError

__all__ = ["JoinEdge", "QueryGraph"]


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """An undirected join edge between two relations.

    Attributes:
        left: index of one endpoint relation.
        right: index of the other endpoint relation.
        selectivity: estimated selectivity of the join predicate; the
            fraction of the cross product that survives the predicate.
            Must lie in ``(0, 1]``.
        predicate: optional human-readable predicate text, e.g.
            ``"orders.custkey = customer.custkey"``. Purely descriptive.
    """

    left: int
    right: int
    selectivity: float = 1.0
    predicate: str | None = None

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise GraphError(
                f"self-join edge on relation {self.left} is not allowed; "
                "the paper's graphs have no self-cycles (§3.4.1)"
            )
        if self.left < 0 or self.right < 0:
            raise GraphError(
                f"edge endpoints must be non-negative, got "
                f"({self.left}, {self.right})"
            )
        if not 0.0 < self.selectivity <= 1.0:
            raise GraphError(
                f"selectivity must be in (0, 1], got {self.selectivity}"
            )

    @property
    def endpoints(self) -> tuple[int, int]:
        """The endpoint pair with the smaller index first."""
        if self.left <= self.right:
            return (self.left, self.right)
        return (self.right, self.left)

    def mask(self) -> int:
        """Bitset containing both endpoints."""
        return bitset.bit(self.left) | bitset.bit(self.right)

    def normalized(self) -> "JoinEdge":
        """Return an equal edge with ``left < right``."""
        if self.left < self.right:
            return self
        return JoinEdge(self.right, self.left, self.selectivity, self.predicate)


class QueryGraph:
    """An immutable, connected-or-not undirected query graph.

    Args:
        n_relations: number of relations (nodes), indexed ``0..n-1``.
        edges: join edges. Parallel edges (several predicates between the
            same pair of relations) are merged into one edge whose
            selectivity is the product of the parts, matching the usual
            independence assumption.
        names: optional relation names; defaults to ``R0..R{n-1}``.

    The class never mutates after construction, so derived data
    (neighbor masks, connectivity) is computed once and cached.
    """

    __slots__ = (
        "_n",
        "_names",
        "_edges",
        "_neighbors",
        "_edges_of",
        "_incidence",
        "__dict__",
    )

    def __init__(
        self,
        n_relations: int,
        edges: Iterable[JoinEdge | tuple] = (),
        names: Sequence[str] | None = None,
    ) -> None:
        if n_relations <= 0:
            raise GraphError(f"a query graph needs at least one relation, got {n_relations}")
        self._n = n_relations
        if names is None:
            self._names = tuple(f"R{i}" for i in range(n_relations))
        else:
            if len(names) != n_relations:
                raise GraphError(
                    f"got {len(names)} names for {n_relations} relations"
                )
            if len(set(names)) != len(names):
                raise GraphError("relation names must be unique")
            self._names = tuple(names)

        merged: dict[tuple[int, int], JoinEdge] = {}
        for raw in edges:
            edge = raw if isinstance(raw, JoinEdge) else JoinEdge(*raw)
            if edge.left >= n_relations or edge.right >= n_relations:
                raise UnknownRelationError(
                    f"edge {edge.endpoints} references a relation >= {n_relations}"
                )
            edge = edge.normalized()
            key = edge.endpoints
            if key in merged:
                prior = merged[key]
                predicate = " AND ".join(
                    text for text in (prior.predicate, edge.predicate) if text
                ) or None
                merged[key] = JoinEdge(
                    key[0], key[1], prior.selectivity * edge.selectivity, predicate
                )
            else:
                merged[key] = edge
        self._edges: tuple[JoinEdge, ...] = tuple(
            merged[key] for key in sorted(merged)
        )

        neighbors = [0] * n_relations
        edges_of: list[list[JoinEdge]] = [[] for _ in range(n_relations)]
        incidence: list[list[tuple[int, float]]] = [[] for _ in range(n_relations)]
        for edge in self._edges:
            neighbors[edge.left] |= bitset.bit(edge.right)
            neighbors[edge.right] |= bitset.bit(edge.left)
            edges_of[edge.left].append(edge)
            edges_of[edge.right].append(edge)
            incidence[edge.left].append((bitset.bit(edge.right), edge.selectivity))
            incidence[edge.right].append((bitset.bit(edge.left), edge.selectivity))
        self._neighbors = tuple(neighbors)
        self._edges_of = tuple(tuple(per_node) for per_node in edges_of)
        # (other_endpoint_bit, selectivity) pairs per node: the hot-path
        # structure behind crossing_selectivity, which optimizers call
        # once per CreateJoinTree.
        self._incidence = tuple(tuple(per_node) for per_node in incidence)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_relations(self) -> int:
        """Number of relations (nodes)."""
        return self._n

    @property
    def names(self) -> tuple[str, ...]:
        """Relation names, indexed by relation index."""
        return self._names

    @property
    def edges(self) -> tuple[JoinEdge, ...]:
        """All join edges, normalized and sorted by endpoints."""
        return self._edges

    @property
    def all_relations(self) -> int:
        """Bitset containing every relation."""
        return (1 << self._n) - 1

    def name_of(self, index: int) -> str:
        """Name of relation ``index``."""
        if not 0 <= index < self._n:
            raise UnknownRelationError(f"no relation with index {index}")
        return self._names[index]

    def index_of(self, name: str) -> int:
        """Index of the relation called ``name``."""
        try:
            return self._names.index(name)
        except ValueError:
            raise UnknownRelationError(f"no relation named {name!r}") from None

    def neighbor_mask(self, index: int) -> int:
        """Bitset of the direct neighbors of a single relation."""
        if not 0 <= index < self._n:
            raise UnknownRelationError(f"no relation with index {index}")
        return self._neighbors[index]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-relation neighbor bitsets, indexed by relation index.

        Exposed for hot loops (DPsub, DPccp) that index repeatedly and
        cannot afford a method call per bit.
        """
        return self._neighbors

    @property
    def incidence(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-relation ``(neighbor bit, selectivity)`` pairs, in edge order.

        Exposed for hot loops (LinDP's interval tables) that multiply
        crossing selectivities inline; :meth:`crossing_selectivity`
        multiplies the same factors in the same order.
        """
        return self._incidence

    def degree(self, index: int) -> int:
        """Number of join edges incident to relation ``index``."""
        return bitset.popcount(self.neighbor_mask(index))

    def edges_of(self, index: int) -> tuple[JoinEdge, ...]:
        """All edges incident to relation ``index``."""
        if not 0 <= index < self._n:
            raise UnknownRelationError(f"no relation with index {index}")
        return self._edges_of[index]

    # ------------------------------------------------------------------
    # Set-level operations used by the enumeration algorithms
    # ------------------------------------------------------------------

    def neighborhood(self, mask: int) -> int:
        """``N(S)``: nodes adjacent to the set, excluding the set itself.

        This is the paper's neighborhood of a set (§3.2):
        ``N(S) = (union of N(v) for v in S) \\ S``.
        """
        result = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            result |= self._neighbors[low.bit_length() - 1]
            remaining ^= low
        return result & ~mask

    def is_connected_set(self, mask: int) -> bool:
        """Return ``True`` iff ``mask`` induces a connected subgraph.

        The empty set is not connected; singletons are. This is the
        ``connected S`` test DPsub performs for every subset it visits.
        Each round grows from the nodes the last one reached, so every
        node's neighbors are read once.
        """
        if mask == 0:
            return False
        reached = frontier = mask & -mask
        while frontier:
            frontier = self.neighborhood(frontier) & mask & ~reached
            reached |= frontier
        return reached == mask

    def are_connected(self, left: int, right: int) -> bool:
        """Return ``True`` iff some edge joins a node in ``left`` to one in ``right``.

        This is the ``S1 connected to S2`` test of DPsize and DPsub; it
        does not require either side to be internally connected.
        """
        if left == 0 or right == 0:
            return False
        return self.neighborhood(left) & right != 0

    def crossing_edges(self, left: int, right: int) -> Iterator[JoinEdge]:
        """Yield every edge with one endpoint in ``left`` and one in ``right``.

        Iterates over the incidence lists of the smaller side, so the
        cost is proportional to the degree sum of that side.
        """
        if bitset.popcount(left) > bitset.popcount(right):
            left, right = right, left
        seen: set[tuple[int, int]] = set()
        remaining = left
        while remaining:
            low = remaining & -remaining
            index = low.bit_length() - 1
            for edge in self._edges_of[index]:
                other = edge.right if edge.left == index else edge.left
                if bitset.bit(other) & right and edge.endpoints not in seen:
                    seen.add(edge.endpoints)
                    yield edge
            remaining ^= low

    def crossing_selectivity(self, left: int, right: int) -> float:
        """Product of selectivities of all edges between ``left`` and ``right``.

        ``left`` and ``right`` must be disjoint (every crossing edge
        then has exactly one endpoint per side, so iterating one side's
        incidence lists visits each edge once). Returns 1.0 when no
        edge crosses (i.e. for a cross product); callers that must
        *reject* cross products should first check
        :meth:`are_connected`. This is the optimizers' per-join hot
        path — one call per ``CreateJoinTree``.
        """
        if left & right:
            raise GraphError(
                "crossing_selectivity requires disjoint sides, got "
                f"overlap {bitset.format_bits(left & right)}"
            )
        if left.bit_count() > right.bit_count():
            left, right = right, left
        result = 1.0
        incidence = self._incidence
        remaining = left
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            for other_bit, selectivity in incidence[low.bit_length() - 1]:
                if other_bit & right:
                    result *= selectivity
        return result

    def internal_edges(self, mask: int) -> Iterator[JoinEdge]:
        """Yield every edge with both endpoints inside ``mask``."""
        for edge in self._edges:
            if bitset.is_subset(edge.mask(), mask):
                yield edge

    # ------------------------------------------------------------------
    # Whole-graph properties
    # ------------------------------------------------------------------

    @cached_property
    def is_connected(self) -> bool:
        """Whether the whole query graph is connected.

        The paper's algorithms require this; optimizers reject
        disconnected graphs up front (see
        :class:`repro.errors.DisconnectedGraphError`).
        """
        return self.is_connected_set(self.all_relations)

    def bfs_order(self, start: int = 0) -> list[int]:
        """Return nodes in breadth-first order from ``start``.

        Only nodes reachable from ``start`` are listed; for a connected
        graph that is every node. Neighbors are visited in ascending
        index order, making the result deterministic.
        """
        if not 0 <= start < self._n:
            raise UnknownRelationError(f"no relation with index {start}")
        seen = bitset.bit(start)
        order = [start]
        queue = deque([start])
        while queue:
            node = queue.popleft()
            fresh = self._neighbors[node] & ~seen
            for neighbor in bitset.iter_bits(fresh):
                seen |= bitset.bit(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
        return order

    def is_bfs_numbered(self) -> bool:
        """Check the paper's §3.4.1 precondition.

        Relations must be numbered so that a breadth-first search from
        node 0 (visiting neighbors in ascending index order) yields
        ``0, 1, .., n-1``. :meth:`bfs_renumbered` produces such a graph.
        Such a search reaches every node, so the graph is connected.
        """
        return self.bfs_order(0) == list(range(self._n))

    def bfs_renumbered(self, start: int = 0) -> tuple["QueryGraph", list[int]]:
        """Return an isomorphic graph whose nodes are BFS-numbered.

        Returns:
            A pair ``(graph, old_of_new)`` where ``old_of_new[new_index]``
            is the original index of the relation now called
            ``new_index``. Use :func:`remap_mask` to translate bitsets
            between the two numberings.
        """
        order = self.bfs_order(start)
        if len(order) != self._n:
            raise GraphError(
                "bfs_renumbered requires a connected graph; "
                f"only {len(order)} of {self._n} relations reachable from {start}"
            )
        new_of_old = [0] * self._n
        for new_index, old_index in enumerate(order):
            new_of_old[old_index] = new_index
        edges = [
            JoinEdge(
                new_of_old[edge.left],
                new_of_old[edge.right],
                edge.selectivity,
                edge.predicate,
            )
            for edge in self._edges
        ]
        names = [self._names[old] for old in order]
        return QueryGraph(self._n, edges, names), order

    def canonical_form(self) -> tuple["QueryGraph", list[int]]:
        """Return an isomorphism-stable relabeling of this graph.

        Two isomorphic graphs — same topology and edge selectivities,
        indices permuted arbitrarily — produce equal canonical twins
        (up to relation names, which are carried along as metadata but
        ignored by the labeling). The ordering is computed by color
        refinement plus canonical BFS; see
        :mod:`repro.graph.canonical` for the algorithm and its (rare,
        cache-miss-only) tie-break caveat.

        Returns:
            A pair ``(graph, old_of_new)`` exactly like
            :meth:`bfs_renumbered`: ``old_of_new[new_index]`` is the
            original index of the relation now called ``new_index``.

        Raises:
            GraphError: if the graph is disconnected.
        """
        from repro.graph.canonical import canonical_order

        order = canonical_order(self)
        new_of_old = [0] * self._n
        for new_index, old_index in enumerate(order):
            new_of_old[old_index] = new_index
        return self.relabelled(new_of_old), order

    def relabelled(self, new_of_old: Sequence[int]) -> "QueryGraph":
        """Return an isomorphic graph with nodes renamed by a permutation.

        ``new_of_old[old_index]`` gives the new index of each node.
        """
        if sorted(new_of_old) != list(range(self._n)):
            raise GraphError("relabelling must be a permutation of 0..n-1")
        edges = [
            JoinEdge(
                new_of_old[edge.left],
                new_of_old[edge.right],
                edge.selectivity,
                edge.predicate,
            )
            for edge in self._edges
        ]
        names = [""] * self._n
        for old_index, new_index in enumerate(new_of_old):
            names[new_index] = self._names[old_index]
        return QueryGraph(self._n, edges, names)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"QueryGraph(n_relations={self._n}, "
            f"edges={len(self._edges)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._names == other._names
            and self._edges == other._edges
        )

    @cached_property
    def _hash(self) -> int:
        """Structural hash, computed once: the plan service hashes every
        request's graph on its exact-instance lookup."""
        return hash((self._n, self._names, self._edges))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle the constructor arguments only: string hashes are
        # salted per process, so a cached ``_hash`` must not travel to
        # a worker process.
        return (QueryGraph, (self._n, self._edges, self._names))


def remap_mask(mask: int, index_map: Sequence[int]) -> int:
    """Translate a bitset through an index mapping.

    ``index_map[i]`` is the index, in the *target* numbering, of the
    relation that bit ``i`` denotes in the *source* numbering. Used to
    translate plans between a graph and its BFS-renumbered twin.
    """
    result = 0
    for index in bitset.iter_bits(mask):
        result |= bitset.bit(index_map[index])
    return result

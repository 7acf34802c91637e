"""A join interpreter for join-tree plans.

Executes a :class:`~repro.plans.jointree.JoinTree` over tables from
:func:`repro.exec.data.generate_tables` (or any list-of-dict-rows
layout). Tuples in flight map relation index -> base row, so arbitrary
bushy shapes compose without column renaming. Each join node evaluates
the equi-join keys of the edges crossing its two sides with the
physical operator the plan asks for — hash join (the default), nested
loops, or sort-merge — falling back to a nested cross product when no
edge crosses (DPall plans). For inputs L and R, the operators do this
work:

* ``NestedLoopJoin`` compares all |L|·|R| pairs, L as the outer, and
  computes each row's key once.
* ``HashJoin`` builds a hash table on the smaller input and probes it
  with the other.
* ``SortMergeJoin`` sorts both inputs on the key, then merges
  equal-key groups.

The point is validation, not speed: the returned
:class:`ExecutionReport` lists, per join, the optimizer's estimated
cardinality next to the actual row count, plus the totals that make
C_out comparable to reality. Each :class:`JoinObservation` reports the
operator that actually ran — which may differ from the plan's label
when execution had to fall back (``operator`` vs. ``planned``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro import bitset
from repro.errors import ReproError
from repro.exec.data import edge_column
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["JoinObservation", "ExecutionReport", "execute_plan"]

#: A tuple in flight: relation index -> base-table row.
Tuple = dict[int, dict[str, int]]

#: One equi-join key of a join node:
#: ``(left_relation, left_column, right_relation, right_column)``.
_Key = tuple[int, str, int, str]

#: Physical operator labels the interpreter can execute directly.
_PHYSICAL_OPERATORS = ("HashJoin", "NestedLoopJoin", "SortMergeJoin")


@dataclass(frozen=True, slots=True)
class JoinObservation:
    """Estimated vs. actual output size of one join node.

    ``operator`` names the algorithm that *actually executed* —
    ``HashJoin``, ``NestedLoopJoin``, ``SortMergeJoin`` or
    ``CrossProduct``; ``planned`` preserves the logical plan's label
    (``Join`` for C_out plans, a physical choice after operator
    selection). The two differ exactly when execution fell back, e.g.
    a cross product for a keyless join.
    """

    relations: int
    operator: str
    estimated: float
    actual: int
    planned: str = ""

    @property
    def fell_back(self) -> bool:
        """True when the executed operator is not the planned one."""
        return bool(self.planned) and self.planned != self.operator

    @property
    def q_error(self) -> float:
        """max(est/act, act/est) — the standard estimation error measure."""
        estimated = max(self.estimated, 1e-12)
        actual = max(float(self.actual), 1e-12)
        return max(estimated / actual, actual / estimated)


@dataclass(slots=True)
class ExecutionReport:
    """Everything one plan execution produced (besides the rows)."""

    observations: list[JoinObservation]
    result_rows: int

    @property
    def total_intermediate_actual(self) -> int:
        """Actual C_out: sum of real intermediate result sizes."""
        return sum(observation.actual for observation in self.observations)

    @property
    def total_intermediate_estimated(self) -> float:
        """The optimizer's C_out for the same plan."""
        return sum(observation.estimated for observation in self.observations)

    @property
    def max_q_error(self) -> float:
        """Worst per-join estimation error."""
        if not self.observations:
            return 1.0
        return max(observation.q_error for observation in self.observations)

    @property
    def median_q_error(self) -> float:
        """Median per-join estimation error (1.0 for leaf-only plans)."""
        if not self.observations:
            return 1.0
        ordered = sorted(observation.q_error for observation in self.observations)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2.0


def execute_plan(
    plan: JoinTree,
    graph: QueryGraph,
    tables: list[list[dict[str, int]]],
    join_columns: Mapping[int, tuple[str, str]] | None = None,
) -> ExecutionReport:
    """Execute ``plan`` over ``tables``; return the validation report.

    Args:
        plan: the join tree to interpret. Nodes labelled with a
            physical operator (``NestedLoopJoin``, ``HashJoin``,
            ``SortMergeJoin``) execute with that algorithm; any other
            label runs as a hash join, the sensible default for
            logical plans.
        graph: the query graph the plan was optimized for; its edges
            define the join keys.
        tables: rows per relation, aligned with graph indices.
        join_columns: edge position -> ``(column on the edge's lower
            endpoint, column on the higher endpoint)`` for real-schema
            tables (e.g. ``{0: ("custkey", "custkey")}``). Defaults to
            the synthetic :func:`~repro.exec.data.edge_column` layout
            on both sides.
    """
    if len(tables) != graph.n_relations:
        raise ReproError(
            f"got {len(tables)} tables for {graph.n_relations} relations"
        )
    observations: list[JoinObservation] = []

    def run(node: JoinTree) -> list[Tuple]:
        if node.is_leaf:
            index = node.relation_index
            return [{index: row} for row in tables[index]]
        assert node.left is not None and node.right is not None
        left_tuples = run(node.left)
        right_tuples = run(node.right)
        joined, executed = _join(
            graph,
            node.left.relations,
            node.right.relations,
            left_tuples,
            right_tuples,
            node.operator,
            join_columns,
        )
        observations.append(
            JoinObservation(
                relations=node.relations,
                operator=executed,
                estimated=node.cardinality,
                actual=len(joined),
                planned=node.operator,
            )
        )
        return joined

    result = run(plan)
    return ExecutionReport(observations=observations, result_rows=len(result))


def _crossing_keys(
    graph: QueryGraph,
    left_mask: int,
    right_mask: int,
    join_columns: Mapping[int, tuple[str, str]] | None,
) -> list[_Key]:
    """Equi-join keys of the edges crossing ``left_mask``/``right_mask``.

    Each key is oriented to the join's sides: the first (relation,
    column) pair lives in ``left_mask``, the second in ``right_mask``.
    """
    keys: list[_Key] = []
    for position, edge in enumerate(graph.edges):
        low_end, high_end = edge.endpoints
        if join_columns is not None and position in join_columns:
            low_column, high_column = join_columns[position]
        else:
            low_column = high_column = edge_column(position)
        if bitset.bit(low_end) & left_mask and bitset.bit(high_end) & right_mask:
            keys.append((low_end, low_column, high_end, high_column))
        elif bitset.bit(high_end) & left_mask and bitset.bit(low_end) & right_mask:
            keys.append((high_end, high_column, low_end, low_column))
    return keys


def _join(
    graph: QueryGraph,
    left_mask: int,
    right_mask: int,
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
    operator: str,
    join_columns: Mapping[int, tuple[str, str]] | None,
) -> tuple[list[Tuple], str]:
    """Join two tuple streams; return ``(rows, executed_operator)``."""
    keys = _crossing_keys(graph, left_mask, right_mask, join_columns)
    if not keys:  # cross product (DPall plans) — no algorithm applies
        rows = [
            {**left, **right} for left in left_tuples for right in right_tuples
        ]
        return rows, "CrossProduct"
    if operator == "NestedLoopJoin":
        return _nested_loop_join(keys, left_tuples, right_tuples), operator
    if operator == "SortMergeJoin":
        return _sort_merge_join(keys, left_tuples, right_tuples), operator
    return _hash_join(keys, left_tuples, right_tuples), "HashJoin"


def _key_getters(keys: list[_Key]):
    """``(left, right)`` key getters for a join's inputs, from ``keys``.

    A getter maps a tuple in flight to its join key: the bare value for
    a single-column key, a tuple of values in edge order for a
    conjunctive one. Both read the crossing edges in the same order, so
    a left and a right key are equal exactly when every edge's columns
    match. The return stays unannotated because a union of the two key
    shapes would not type-check the sort-merge comparisons; both inputs
    of one join always share a shape.
    """
    return (
        _key_getter([(rel, column) for rel, column, _o, _c in keys]),
        _key_getter([(other, column) for _r, _c, other, column in keys]),
    )


def _key_getter(extract: list[tuple[int, str]]):
    """Read ``extract``'s columns: a scalar for one, a tuple for several."""
    if len(extract) == 1:
        ((rel, column),) = extract
        return lambda item: item[rel][column]
    return lambda item: tuple([item[rel][column] for rel, column in extract])


def _hash_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Build a hash table on the smaller input, probe with the other."""
    build_side, probe_side = left_tuples, right_tuples
    build_key_of, probe_key_of = _key_getters(keys)
    if len(build_side) > len(probe_side):
        build_side, probe_side = probe_side, build_side
        build_key_of, probe_key_of = probe_key_of, build_key_of

    table: dict[object, list[Tuple]] = {}
    for item in build_side:
        table.setdefault(build_key_of(item), []).append(item)
    joined: list[Tuple] = []
    for item in probe_side:
        for match in table.get(probe_key_of(item), ()):
            joined.append({**match, **item})
    return joined


def _nested_loop_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Compare every (outer, inner) pair, the left input as the outer.

    Each row's key is read once: the inner keys before the outer loop,
    each outer key as its row comes up.
    """
    left_key_of, right_key_of = _key_getters(keys)
    inner = [(right_key_of(item), item) for item in right_tuples]
    joined: list[Tuple] = []
    for outer in left_tuples:
        outer_key = left_key_of(outer)
        for inner_key, item in inner:
            if inner_key == outer_key:
                joined.append({**outer, **item})
    return joined


def _sort_merge_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Sort both inputs on the join key, then merge equal-key groups."""
    left_key_of, right_key_of = _key_getters(keys)
    left_sorted = sorted(
        ((left_key_of(item), item) for item in left_tuples),
        key=lambda pair: pair[0],
    )
    right_sorted = sorted(
        ((right_key_of(item), item) for item in right_tuples),
        key=lambda pair: pair[0],
    )
    joined: list[Tuple] = []
    i = j = 0
    while i < len(left_sorted) and j < len(right_sorted):
        left_key = left_sorted[i][0]
        right_key = right_sorted[j][0]
        if left_key < right_key:
            i += 1
        elif left_key > right_key:
            j += 1
        else:
            i_end = i
            while i_end < len(left_sorted) and left_sorted[i_end][0] == left_key:
                i_end += 1
            j_end = j
            while j_end < len(right_sorted) and right_sorted[j_end][0] == left_key:
                j_end += 1
            for _key, left_item in left_sorted[i:i_end]:
                for _key2, right_item in right_sorted[j:j_end]:
                    joined.append({**left_item, **right_item})
            i, j = i_end, j_end
    return joined

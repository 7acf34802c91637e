"""Reference join kernels: the executor's operators before key hoisting.

These are the loop versions the optimized operators in
:mod:`repro.exec.executor` must match exactly — the same output dicts
in the same order. They re-derive a row's key through ``_key_of`` at
every use, which is slow but obviously correct; keep them unchanged.
"""

from __future__ import annotations

#: A tuple in flight: relation index -> base-table row.
Tuple = dict[int, dict[str, int]]

#: ``(left_relation, left_column, right_relation, right_column)``.
_Key = tuple[int, str, int, str]


def _key_of(item: Tuple, extract: list[tuple[int, str]]) -> tuple[int, ...]:
    return tuple(item[rel][column] for rel, column in extract)


def reference_hash_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Build a hash table on the smaller input, probe with the other."""
    build_side, probe_side = left_tuples, right_tuples
    build_extract = [(rel, column) for rel, column, _o, _c in keys]
    probe_extract = [(other, column) for _r, _c, other, column in keys]
    swapped = len(build_side) > len(probe_side)
    if swapped:
        build_side, probe_side = probe_side, build_side
        build_extract, probe_extract = probe_extract, build_extract

    table: dict[tuple[int, ...], list[Tuple]] = {}
    for item in build_side:
        table.setdefault(_key_of(item, build_extract), []).append(item)
    joined: list[Tuple] = []
    for item in probe_side:
        for match in table.get(_key_of(item, probe_extract), ()):
            joined.append({**match, **item})
    return joined


def reference_nested_loop_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Naive nested loops, the left input as the outer."""
    left_extract = [(rel, column) for rel, column, _o, _c in keys]
    right_extract = [(other, column) for _r, _c, other, column in keys]
    joined: list[Tuple] = []
    for outer in left_tuples:
        outer_key = _key_of(outer, left_extract)
        for inner in right_tuples:
            if _key_of(inner, right_extract) == outer_key:
                joined.append({**outer, **inner})
    return joined


def reference_sort_merge_join(
    keys: list[_Key],
    left_tuples: list[Tuple],
    right_tuples: list[Tuple],
) -> list[Tuple]:
    """Sort both inputs on the key tuple, then merge equal-key groups."""
    left_extract = [(rel, column) for rel, column, _o, _c in keys]
    right_extract = [(other, column) for _r, _c, other, column in keys]
    left_sorted = sorted(
        ((_key_of(item, left_extract), item) for item in left_tuples),
        key=lambda pair: pair[0],
    )
    right_sorted = sorted(
        ((_key_of(item, right_extract), item) for item in right_tuples),
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

"""Join kernels against their loop references, plus a work pin.

Each operator in :mod:`repro.exec.executor` must return exactly what
the reference in :mod:`tests.exec.reference_kernels` returns: the same
tuples, holding the same base-row objects, with the same relation
order inside each tuple, in the same output order.
"""

import random

import pytest

from repro.exec.executor import _hash_join, _nested_loop_join, _sort_merge_join
from tests.exec.reference_kernels import (
    reference_hash_join,
    reference_nested_loop_join,
    reference_sort_merge_join,
)

OPERATORS = [
    pytest.param(_hash_join, reference_hash_join, id="hash"),
    pytest.param(_nested_loop_join, reference_nested_loop_join, id="nested_loop"),
    pytest.param(_sort_merge_join, reference_sort_merge_join, id="sort_merge"),
]

#: Join keys between left relations {0, 1} and right relations {2, 3},
#: by key width.
KEYS = {
    1: [(0, "a", 2, "a")],
    2: [(0, "a", 2, "a"), (1, "b", 3, "b")],
    3: [(0, "a", 2, "a"), (1, "b", 3, "b"), (0, "c", 3, "c")],
}

#: (left rows, right rows): empty sides, single rows, either side
#: smaller (the hash join builds on the smaller one), equal sizes.
SIZES = [(0, 0), (0, 7), (7, 0), (1, 1), (5, 40), (40, 5), (25, 25)]


def random_side(rng, relations, rows, domain):
    """Tuples over ``relations`` whose key columns draw from ``domain``."""
    return [
        {
            rel: {
                "rowid": index,
                **{column: rng.randrange(domain) for column in "abc"},
            }
            for rel in relations
        }
        for index in range(rows)
    ]


def layout(rows):
    """Each tuple as (relation, base-row identity) pairs in dict order."""
    return [[(rel, id(row)) for rel, row in item.items()] for item in rows]


@pytest.mark.parametrize("operator, reference", OPERATORS)
@pytest.mark.parametrize("width", sorted(KEYS))
@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("domain", [1, 3])
def test_operator_matches_reference(operator, reference, width, sizes, domain):
    # domain 1 makes every key a duplicate, so joins are full products.
    keys = KEYS[width]
    for seed in range(5):
        rng = random.Random(seed)
        left = random_side(rng, (0, 1), sizes[0], domain)
        right = random_side(rng, (2, 3), sizes[1], domain)
        expected = reference(keys, left, right)
        actual = operator(keys, left, right)
        assert actual == expected
        assert layout(actual) == layout(expected)


class CountingRow(dict):
    """A base row that tallies every column read into ``tally``."""

    def __init__(self, tally, **columns):
        super().__init__(**columns)
        self.tally = tally

    def __getitem__(self, column):
        self.tally["reads"] += 1
        return super().__getitem__(column)


class CountingValue:
    """A key value that tallies every equality test made on it."""

    def __init__(self, value, tally):
        self.value = value
        self.tally = tally

    def __eq__(self, other):
        self.tally["compares"] += 1
        return self.value == other.value

    __hash__ = None


def counting_inputs(tally, outer_rows, inner_rows):
    # distinct value objects per row, so no equality test is skipped
    # by an identity shortcut
    def side(rel, rows):
        return [
            {rel: CountingRow(tally, k=CountingValue(index % 4, tally))}
            for index in range(rows)
        ]

    return side(0, outer_rows), side(1, inner_rows)


class TestNestedLoopWork:
    KEYS = [(0, "k", 1, "k")]

    def test_reads_each_key_once_and_compares_every_pair(self):
        tally = {"reads": 0, "compares": 0}
        outer, inner = counting_inputs(tally, 40, 30)
        joined = _nested_loop_join(self.KEYS, outer, inner)
        assert tally == {"reads": 40 + 30, "compares": 40 * 30}
        assert len(joined) == 40 * 30 // 4

    def test_reference_reads_the_inner_key_per_pair(self):
        tally = {"reads": 0, "compares": 0}
        outer, inner = counting_inputs(tally, 40, 30)
        reference_nested_loop_join(self.KEYS, outer, inner)
        assert tally == {"reads": 40 + 40 * 30, "compares": 40 * 30}

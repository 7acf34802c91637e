"""Relation statistics: the optimizer's view of the stored data.

A :class:`Catalog` maps relation indices (aligned with a
:class:`~repro.graph.querygraph.QueryGraph`) to
:class:`RelationStats`. Only cardinalities are required by the paper's
cost model (C_out); the richer disk model also uses tuple widths and
page counts, which default to sensible values. Relations may
additionally carry per-column :class:`~repro.catalog.columnstats.ColumnStats`
(NDV, MCV list, equi-depth histogram) — produced by
:func:`repro.stats.analyze` and consumed by the statistics-driven
estimator (:class:`repro.stats.StatisticsEstimator`); everything else
ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.catalog.columnstats import ColumnStats
from repro.errors import CatalogError

__all__ = ["RelationStats", "Catalog"]

#: Default bytes per tuple when the schema is unknown.
DEFAULT_TUPLE_BYTES = 100
#: Default page size used to derive page counts from cardinalities.
DEFAULT_PAGE_BYTES = 8192


@dataclass(frozen=True, slots=True)
class RelationStats:
    """Statistics for one base relation.

    Attributes:
        name: relation name (unique within a catalog).
        cardinality: estimated number of rows; must be positive. Kept
            as a float because intermediate estimates are fractional.
        tuple_bytes: average row width in bytes (disk cost model only).
        pages: number of disk pages; derived from cardinality and
            tuple width when not given.
        column_stats: per-column statistics from an ``analyze`` pass,
            empty for relations that were never analyzed. Kept as a
            tuple so the dataclass stays hashable.
    """

    name: str
    cardinality: float
    tuple_bytes: int = DEFAULT_TUPLE_BYTES
    pages: int = field(default=0)
    column_stats: tuple[ColumnStats, ...] = ()

    def __post_init__(self) -> None:
        seen_columns = {stats.column for stats in self.column_stats}
        if len(seen_columns) != len(self.column_stats):
            raise CatalogError(
                f"relation {self.name!r} has duplicate column statistics"
            )
        if self.cardinality <= 0:
            raise CatalogError(
                f"relation {self.name!r} must have positive cardinality, "
                f"got {self.cardinality}"
            )
        if self.tuple_bytes <= 0:
            raise CatalogError(
                f"relation {self.name!r} must have positive tuple width"
            )
        if self.pages == 0:
            derived = max(
                1, round(self.cardinality * self.tuple_bytes / DEFAULT_PAGE_BYTES)
            )
            object.__setattr__(self, "pages", derived)
        elif self.pages < 0:
            raise CatalogError(f"relation {self.name!r} has negative page count")

    def column(self, name: str) -> ColumnStats | None:
        """Statistics of column ``name``, or ``None`` when not analyzed."""
        for stats in self.column_stats:
            if stats.column == name:
                return stats
        return None

    def scaled(self, factor: float) -> "RelationStats":
        """Copy with cardinality scaled by ``factor`` (filter pushdown).

        The result keeps at least one row (a filtered relation still
        exists) and retains the column statistics of the unfiltered
        relation — standard practice: base statistics describe stored
        data, selections scale the cardinality only.
        """
        if factor <= 0:
            raise CatalogError(
                f"relation {self.name!r}: scale factor must be positive, "
                f"got {factor}"
            )
        return replace(
            self,
            cardinality=max(1.0, self.cardinality * factor),
            pages=self.pages,
        )


class Catalog:
    """An immutable collection of :class:`RelationStats`, indexed 0..n-1.

    The index of a relation in the catalog must equal its index in the
    query graph it accompanies; :class:`repro.graph.QueryGraphBuilder`
    guarantees this alignment.
    """

    __slots__ = ("_stats", "_by_name")

    def __init__(self, stats: Iterable[RelationStats]) -> None:
        self._stats: tuple[RelationStats, ...] = tuple(stats)
        if not self._stats:
            raise CatalogError("a catalog needs at least one relation")
        self._by_name = {entry.name: i for i, entry in enumerate(self._stats)}
        if len(self._by_name) != len(self._stats):
            raise CatalogError("catalog relation names must be unique")

    @classmethod
    def from_cardinalities(
        cls, cardinalities: Sequence[float], names: Sequence[str] | None = None
    ) -> "Catalog":
        """Build a catalog from bare cardinalities.

        Names default to ``R0..R{n-1}``, matching
        :class:`~repro.graph.querygraph.QueryGraph` defaults.
        """
        if names is None:
            names = [f"R{i}" for i in range(len(cardinalities))]
        if len(names) != len(cardinalities):
            raise CatalogError(
                f"{len(names)} names for {len(cardinalities)} cardinalities"
            )
        return cls(
            RelationStats(name=name, cardinality=float(card))
            for name, card in zip(names, cardinalities)
        )

    @classmethod
    def uniform(cls, n_relations: int, cardinality: float = 1000.0) -> "Catalog":
        """All relations with the same cardinality (counter experiments)."""
        return cls.from_cardinalities([cardinality] * n_relations)

    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[RelationStats]:
        return iter(self._stats)

    def __getitem__(self, index: int) -> RelationStats:
        try:
            return self._stats[index]
        except IndexError:
            raise CatalogError(
                f"no relation with index {index}; catalog has {len(self)}"
            ) from None

    def by_name(self, name: str) -> RelationStats:
        """Look up statistics by relation name."""
        try:
            return self._stats[self._by_name[name]]
        except KeyError:
            raise CatalogError(f"no relation named {name!r}") from None

    def relabelled(self, new_of_old: Sequence[int]) -> "Catalog":
        """Return a catalog with relations renamed by a permutation.

        ``new_of_old[old_index]`` gives the new index of each relation,
        mirroring :meth:`repro.graph.querygraph.QueryGraph.relabelled`
        so a (graph, catalog) pair can be permuted in lock-step — the
        service layer does this to optimize queries in canonical
        numbering.
        """
        if sorted(new_of_old) != list(range(len(self._stats))):
            raise CatalogError(
                "relabelling must be a permutation of 0..n-1"
            )
        relabeled: list[RelationStats | None] = [None] * len(self._stats)
        for old_index, new_index in enumerate(new_of_old):
            relabeled[new_index] = self._stats[old_index]
        return Catalog(entry for entry in relabeled if entry is not None)

    def column_stats(self, index: int, column: str) -> ColumnStats | None:
        """Statistics of ``column`` on relation ``index`` (``None`` if absent)."""
        return self[index].column(column)

    def has_column_stats(self) -> bool:
        """True when at least one relation carries column statistics."""
        return any(entry.column_stats for entry in self._stats)

    def with_effective_cardinalities(
        self, factor_of_index: Mapping[int, float]
    ) -> "Catalog":
        """Catalog with per-relation cardinality scale factors applied.

        This is the filter-pushdown hook: ``factor_of_index`` maps a
        relation index to the combined selectivity of its local
        filters; unlisted relations are unchanged. Column statistics
        are carried over untouched.
        """
        entries: list[RelationStats] = []
        for index, entry in enumerate(self._stats):
            factor = factor_of_index.get(index)
            entries.append(entry if factor is None else entry.scaled(factor))
        return Catalog(entries)

    def cardinality(self, index: int) -> float:
        """Row-count estimate of relation ``index``."""
        return self[index].cardinality

    def cardinalities(self) -> tuple[float, ...]:
        """All cardinalities, indexed by relation index."""
        return tuple(entry.cardinality for entry in self._stats)

    def __repr__(self) -> str:
        return f"Catalog({len(self._stats)} relations)"

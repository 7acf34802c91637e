"""Cardinality estimation under the independence assumption.

The classic System-R style estimate: the cardinality of joining two
relation sets is the product of their cardinalities times the product of
the selectivities of every join edge crossing between them. Because
selectivities live on graph edges and each edge crosses exactly one join
in any cross-product-free plan for its relations, the estimate for a set
``S`` is independent of the join order — which is what makes the
dynamic programming principle of optimality hold for C_out.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.errors import CatalogError
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["CardinalityEstimator"]


class CardinalityEstimator:
    """Estimates base and join cardinalities for one query.

    Args:
        graph: the query graph (provides edge selectivities).
        catalog: relation statistics aligned with the graph's indices.
            ``None`` gives every relation cardinality 1000, which is
            enough for counter experiments where costs are irrelevant.
    """

    #: Strategy name used in reports and benchmark labels; subclasses
    #: with a different estimation strategy override it (e.g. the
    #: statistics-driven estimator in :mod:`repro.stats`).
    name: str = "independence"

    def __init__(self, graph: QueryGraph, catalog: Catalog | None = None) -> None:
        if catalog is None:
            catalog = Catalog.uniform(graph.n_relations)
        if len(catalog) != graph.n_relations:
            raise CatalogError(
                f"catalog has {len(catalog)} relations but the graph has "
                f"{graph.n_relations}"
            )
        self._graph = graph
        self._catalog = catalog
        # Estimated cardinality per relation set. Sound because the
        # estimate for a set is join-order independent; dynamic
        # programming revisits each set many times (once per
        # csg-cmp-pair), so memoization removes the dominant
        # per-CreateJoinTree cost.
        self._cache: dict[int, float] = {
            1 << index: catalog.cardinality(index)
            for index in range(graph.n_relations)
        }

    @property
    def graph(self) -> QueryGraph:
        """The query graph this estimator was built for."""
        return self._graph

    @property
    def catalog(self) -> Catalog:
        """The relation statistics this estimator was built for."""
        return self._catalog

    def base_cardinality(self, index: int) -> float:
        """Estimated rows of base relation ``index``."""
        return self._catalog.cardinality(index)

    def join_cardinality(self, left: JoinTree, right: JoinTree) -> float:
        """Estimated rows of joining two disjoint subplans.

        ``|L ⨝ R| = |L| * |R| * prod(sel(e) for e crossing L-R)``.
        For a cross product (no crossing edge) the estimate degenerates
        to ``|L| * |R|``; the optimizers never ask for that case, but
        the estimator stays well-defined for tooling that might.
        """
        union = left.relations | right.relations
        cached = self._cache.get(union)
        if cached is not None:
            return cached
        selectivity = self._graph.crossing_selectivity(
            left.relations, right.relations
        )
        estimate = left.cardinality * right.cardinality * selectivity
        self._cache[union] = estimate
        return estimate

    def split_cardinality(self, left: int, right: int) -> float:
        """:meth:`join_cardinality` for two disjoint relation sets.

        The same first-visit memo and the same product, in the same
        order, with each side's estimate read from the memo instead of
        a plan. So the set-level DP step
        (:meth:`repro.core.base.PlanTable.join_step`) and a priced
        ``CreateJoinTree`` over trees this estimator costed get
        bit-identical numbers. Both sides must already be in the memo:
        base relations are, and so is every set a join was estimated
        for.
        """
        union = left | right
        cache = self._cache
        cached = cache.get(union)
        if cached is not None:
            return cached
        selectivity = self._graph.crossing_selectivity(left, right)
        estimate = cache[left] * cache[right] * selectivity
        cache[union] = estimate
        return estimate

    def set_cardinality(self, mask: int) -> float:
        """Estimated rows of the join of all relations in ``mask``.

        Order-independent closed form: product of base cardinalities
        times product of the selectivities of all edges internal to the
        set. Useful for verification — any cross-product-free plan over
        ``mask`` must have exactly this output estimate.
        """
        from repro import bitset

        result = 1.0
        for index in bitset.iter_bits(mask):
            result *= self._catalog.cardinality(index)
        for edge in self._graph.internal_edges(mask):
            result *= edge.selectivity
        return result

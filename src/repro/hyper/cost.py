"""C_out over hypergraphs, with containment-based cardinality.

The estimate for a relation set ``S`` is::

    card(S) = prod(base cardinality of R_i, i in S)
            * prod(selectivity(e) for hyperedges e with nodes(e) ⊆ S)

i.e. a predicate counts as soon as every relation it references is in
the set — regardless of where the join tree applies it. This makes the
estimate a pure function of the set (order-independent), which is what
Bellman's principle needs; it matches how a real estimator with full
predicate knowledge treats generalized predicates.
"""

from __future__ import annotations

from repro import bitset
from repro.catalog.catalog import Catalog
from repro.errors import CatalogError
from repro.hyper.hypergraph import Hypergraph
from repro.plans.jointree import JoinTree

__all__ = ["HyperCoutModel"]


class HyperCoutModel:
    """Plan factory and C_out coster for one hypergraph query.

    Mirrors the :class:`repro.cost.base.CostModel` interface (leaf /
    join / price / ``symmetric`` / ``separable_join_operator``) so
    DPhyp fills the same ``BestPlan`` table through the same join step
    as the simple-graph optimizers.
    """

    name = "hyper-Cout"
    symmetric = True
    #: No separable operator is declared, so the ``BestPlan`` table's
    #: join step prices each candidate through :meth:`price`; the
    #: set-level step would need this model's memo behind a
    #: :class:`~repro.cost.cardinality.CardinalityEstimator`.
    separable_join_operator = None

    def __init__(self, hypergraph: Hypergraph, catalog: Catalog | None = None) -> None:
        if catalog is None:
            catalog = Catalog.uniform(hypergraph.n_relations)
        if len(catalog) != hypergraph.n_relations:
            raise CatalogError(
                f"catalog has {len(catalog)} relations but the hypergraph "
                f"has {hypergraph.n_relations}"
            )
        self._hypergraph = hypergraph
        self._catalog = catalog
        self._card_cache: dict[int, float] = {
            1 << index: catalog.cardinality(index)
            for index in range(hypergraph.n_relations)
        }

    @property
    def hypergraph(self) -> Hypergraph:
        """The hypergraph this model costs plans for."""
        return self._hypergraph

    def set_cardinality(self, mask: int) -> float:
        """Containment-based estimate for a relation set (memoized)."""
        cached = self._card_cache.get(mask)
        if cached is not None:
            return cached
        estimate = 1.0
        for index in bitset.iter_bits(mask):
            estimate *= self._catalog.cardinality(index)
        for edge in self._hypergraph.edges:
            if bitset.is_subset(edge.nodes, mask):
                estimate *= edge.selectivity
        self._card_cache[mask] = estimate
        return estimate

    def leaf(self, index: int) -> JoinTree:
        """Plan for a single base relation."""
        return JoinTree.leaf(
            index,
            cardinality=self._catalog.cardinality(index),
            cost=0.0,
            name=self._catalog[index].name,
        )

    def price(self, left: JoinTree, right: JoinTree) -> tuple[float, float, str]:
        """(cardinality, total C_out, operator) of joining two subplans."""
        cardinality = self.set_cardinality(left.relations | right.relations)
        return cardinality, left.cost + right.cost + cardinality, "Join"

    def join(self, left: JoinTree, right: JoinTree) -> JoinTree:
        """Materialize the join node (``CreateJoinTree``)."""
        cardinality, cost, operator = self.price(left, right)
        return JoinTree.join(
            left, right, cardinality=cardinality, cost=cost, operator=operator
        )

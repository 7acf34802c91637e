"""The cost-model interface every optimizer is parameterized by.

A :class:`CostModel` is bound to one query (graph + catalog via a
:class:`~repro.cost.cardinality.CardinalityEstimator`) and acts as the
plan factory: :meth:`leaf` builds base-relation plans, :meth:`join`
implements the paper's ``CreateJoinTree``. Subclasses define only the
cost arithmetic; tree construction and cardinality estimation are
shared here.

The dynamic programming algorithms require the model to satisfy
Bellman's principle of optimality: replacing a subplan by a cheaper
subplan over the same relation set must never increase the total cost.
Both shipped models (C_out and the disk model) are monotone in child
cost and therefore satisfy it.
"""

from __future__ import annotations

import abc

from repro.catalog.catalog import Catalog
from repro.cost.cardinality import CardinalityEstimator
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["CostModel"]


class CostModel(abc.ABC):
    """Builds costed plan nodes for one query.

    Args:
        graph: the query graph.
        catalog: relation statistics; defaults to uniform cardinalities
            (sufficient when only enumeration behaviour matters).
        estimator: cardinality-estimation strategy. Defaults to the
            independence :class:`CardinalityEstimator` over ``graph``
            and ``catalog``; pass e.g. a
            :class:`repro.stats.StatisticsEstimator` to swap the
            strategy without touching any enumerator. When given,
            ``graph``/``catalog`` must be the estimator's own (or
            ``None``) — the model always costs the instance the
            estimator was built for.
    """

    #: Short name used in reports and benchmark labels.
    name: str = "abstract"

    #: True when ``join(a, b)`` and ``join(b, a)`` always cost the same.
    #: Symmetric models let DPsize and DPccp build one tree per
    #: unordered csg-cmp-pair instead of two — the paper's remark that
    #: commutativity may be handled inside ``CreateJoinTree`` (§3.1).
    symmetric: bool = False

    #: Operator label to use when the model's join cost is *separable*
    #: in the C_out shape:
    #: ``cost(join) = (cost(left) + cost(right)) + out_cardinality``.
    #: ``None`` (the default) declares nothing. Separable symmetric
    #: models let DPconv's value-only lattice sweep and LinDP's interval
    #: sweep compare candidate splits by ``cost(left) + cost(right)``
    #: without calling the model, and price only the final plan's
    #: joins; any other model takes their priced fallback paths.
    separable_join_operator: str | None = None

    def __init__(
        self,
        graph: QueryGraph | None = None,
        catalog: Catalog | None = None,
        *,
        estimator: CardinalityEstimator | None = None,
    ) -> None:
        if estimator is None:
            if graph is None:
                raise OptimizerError(
                    f"{type(self).__name__} needs a graph or an estimator"
                )
            estimator = CardinalityEstimator(graph, catalog)
        else:
            if graph is not None and graph is not estimator.graph:
                raise OptimizerError(
                    "pass either a graph or an estimator, not a conflicting "
                    "pair — the model always costs the estimator's instance"
                )
            if catalog is not None and catalog is not estimator.catalog:
                raise OptimizerError(
                    "catalog conflicts with the estimator's own catalog"
                )
        self._estimator = estimator

    @property
    def estimator(self) -> CardinalityEstimator:
        """The cardinality estimator backing this model."""
        return self._estimator

    @property
    def graph(self) -> QueryGraph:
        """The query graph this model costs plans for."""
        return self._estimator.graph

    # ------------------------------------------------------------------
    # Plan factory (the paper's BestPlan({Ri}) = Ri and CreateJoinTree)
    # ------------------------------------------------------------------

    def leaf(self, index: int) -> JoinTree:
        """Build the plan for a single base relation."""
        cardinality = self._estimator.base_cardinality(index)
        return JoinTree.leaf(
            index,
            cardinality=cardinality,
            cost=self._leaf_cost(index, cardinality),
            name=self.graph.name_of(index),
        )

    def join(self, left: JoinTree, right: JoinTree) -> JoinTree:
        """``CreateJoinTree(p1, p2)``: join two disjoint subplans.

        Estimates the output cardinality, asks the subclass for the
        operator choice and cost, and assembles the tree node. Note
        that cost may depend on the input order (e.g. build vs. probe
        side), which is why DPccp and DPsize try both orders under
        asymmetric models.
        """
        cardinality, cost, operator = self.price(left, right)
        return JoinTree.join(
            left,
            right,
            cardinality=cardinality,
            cost=cost,
            operator=operator,
        )

    def price(self, left: JoinTree, right: JoinTree) -> tuple[float, float, str]:
        """Cost a join without building the tree node.

        Returns ``(cardinality, total_cost, operator)``. Under an
        asymmetric or non-separable model the DP algorithms price every
        candidate pair but materialize a tree only for winners (see
        :meth:`repro.core.base.PlanTable.consider`), which keeps the
        per-candidate cost close to the counter model of the paper.
        Symmetric separable models skip this call per pair: the table's
        set-level step (:meth:`repro.core.base.PlanTable.join_step`)
        does the same arithmetic on relation sets.
        """
        cardinality = self._estimator.join_cardinality(left, right)
        cost, operator = self._join_cost(left, right, cardinality)
        return cardinality, cost, operator

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    def _leaf_cost(self, index: int, cardinality: float) -> float:
        """Cost of producing a base relation. Defaults to free scans."""
        del index, cardinality
        return 0.0

    @abc.abstractmethod
    def _join_cost(
        self, left: JoinTree, right: JoinTree, out_cardinality: float
    ) -> tuple[float, str]:
        """Return ``(total_cost, operator_label)`` for one join node.

        ``total_cost`` must include the children's costs (it is the
        cost of the whole subtree, as the paper's ``cost(plan)``).
        """

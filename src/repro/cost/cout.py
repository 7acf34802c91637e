"""The C_out cost model: sum of intermediate result cardinalities.

``C_out(plan) = sum over all join nodes of their output cardinality``.
This is the standard cost function of the join-ordering literature
(Cluet & Moerkotte 1995 and onward): it is cheap to evaluate, symmetric
in the join inputs, satisfies the ASI property on linear trees, and
correlates well with realistic models because every operator's work is
at least linear in its output.
"""

from __future__ import annotations

from repro.cost.base import CostModel
from repro.plans.jointree import JoinTree

__all__ = ["CoutModel"]


class CoutModel(CostModel):
    """Sum-of-intermediate-results cost model."""

    name = "Cout"
    symmetric = True  # output cardinality does not depend on input order
    #: C_out is the canonical separable model: the join cost below is
    #: exactly (left + right) + out_cardinality, which qualifies it for
    #: the DPconv and LinDP sweeps (see CostModel.separable_join_operator).
    separable_join_operator = "Join"

    def _join_cost(
        self, left: JoinTree, right: JoinTree, out_cardinality: float
    ) -> tuple[float, str]:
        return left.cost + right.cost + out_cardinality, "Join"

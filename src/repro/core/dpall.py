"""DPall — Vance & Maier's subset DP *with* cross products.

The paper's starting point for DPsub: "Vance and Maier proposed an
algorithm which generates subsets extremely fast. They use this routine
to generate optimal bushy join trees **containing cross products**. ...
as generating cross products vastly increases the search space [5], it
is a very interesting exercise to modify their algorithm such that it
excludes cross products."

This is the unmodified original: every subset of relations gets a plan,
every submask split is a valid candidate, no connectivity tests at all.
Its InnerCounter is always ``3^n - 2^{n+1} + 1`` and its plan table
always holds all ``2^n - 1`` sets — which quantifies exactly how much
search space the paper's cross-product-free restriction removes.

Allowing cross products can produce *cheaper* plans (joining two tiny
unrelated relations first can beat every connected order), so
``DPall.cost <= DPccp.cost`` always; on foreign-key workloads they
typically coincide. DPall also handles disconnected query graphs —
there the cross product is mandatory and the other algorithms refuse.
"""

from __future__ import annotations

from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.core.dpsub import MAX_RELATIONS
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph

__all__ = ["DPall"]


class DPall(JoinOrderer):
    """Optimal bushy join trees *including* cross products."""

    name = "DPall"
    kbest_capture = True
    requires_connected = False

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        n = graph.n_relations
        if n > MAX_RELATIONS:
            raise OptimizerError(
                f"DPall enumerates all 2^{n} subsets; refusing n > "
                f"{MAX_RELATIONS}"
            )
        step = table.join_step(cost_model)
        total = 1 << n
        for mask in range(1, total):
            low = mask & -mask
            if mask == low:
                continue  # singleton: seeded
            left = low
            while left != mask:
                counters.inner_counter += 1
                right = mask ^ left
                counters.csg_cmp_pair_counter += 1
                counters.create_join_tree_calls += 1
                step(left, right)
                left = (left - mask) & mask
        counters.ono_lohman_counter = counters.csg_cmp_pair_counter // 2

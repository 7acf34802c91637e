"""Join-order optimizers: the paper's three DP algorithms plus baselines.

The primary entry points:

>>> from repro.core import DPccp
>>> from repro.graph import chain_graph
>>> result = DPccp().optimize(chain_graph(5, selectivity=0.1))
>>> result.plan.size
5

or, by name:

>>> from repro.core import optimize
>>> optimize(chain_graph(5, selectivity=0.1), algorithm="dpsize").algorithm
'DPsize'
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.core.adaptive import AdaptiveOptimizer
from repro.core.base import CounterSet, JoinOrderer, OptimizationResult, PlanTable
from repro.core.dpccp import DPccp
from repro.core.dpconv import DPconv
from repro.core.dpsize import DPsize
from repro.core.dpsub import DPsub
from repro.core.exhaustive import ExhaustiveOptimizer
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.dpall import DPall
from repro.core.idp import IterativeDP
from repro.core.ikkbz import IKKBZ
from repro.core.kbest import KBestResult, k_best_plans, plan_fingerprint
from repro.core.leftdeep import LeftDeepDP
from repro.core.lindp import LinDP
from repro.core.quickpick import QuickPick
from repro.core.topdown import TopDownBB
from repro.core.variants import DPsizeBasic, DPsubBasic
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph

__all__ = [
    "CounterSet",
    "PlanTable",
    "OptimizationResult",
    "JoinOrderer",
    "DPsize",
    "DPsub",
    "DPccp",
    "DPconv",
    "DPsizeBasic",
    "DPsubBasic",
    "DPall",
    "LeftDeepDP",
    "QuickPick",
    "TopDownBB",
    "ExhaustiveOptimizer",
    "GreedyOperatorOrdering",
    "IKKBZ",
    "IterativeDP",
    "LinDP",
    "AdaptiveOptimizer",
    "ALGORITHMS",
    "KBestResult",
    "k_best_plans",
    "make_algorithm",
    "optimize",
    "plan_fingerprint",
]

#: Registry of constructible algorithms, keyed by lower-case name.
ALGORITHMS: dict[str, type[JoinOrderer]] = {
    "dpsize": DPsize,
    "dpsub": DPsub,
    "dpccp": DPccp,
    "dpconv": DPconv,
    "dpsize-basic": DPsizeBasic,
    "dpsub-basic": DPsubBasic,
    "dpall": DPall,
    "leftdeep": LeftDeepDP,
    "quickpick": QuickPick,
    "topdown": TopDownBB,
    "exhaustive": ExhaustiveOptimizer,
    "goo": GreedyOperatorOrdering,
    "ikkbz": IKKBZ,
    "idp": IterativeDP,
    "lindp": LinDP,
    "adaptive": AdaptiveOptimizer,
}


def make_algorithm(name: str) -> JoinOrderer:
    """Instantiate an algorithm from the registry by (case-insensitive) name."""
    try:
        return ALGORITHMS[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise OptimizerError(
            f"unknown algorithm {name!r}; expected one of: {known}"
        ) from None


def optimize(
    graph: QueryGraph,
    cost_model: CostModel | None = None,
    catalog: Catalog | None = None,
    algorithm: str = "dpccp",
) -> OptimizationResult:
    """One-call convenience wrapper: build the algorithm and optimize."""
    return make_algorithm(algorithm).optimize(
        graph, cost_model=cost_model, catalog=catalog
    )

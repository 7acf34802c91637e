"""repro — Moerkotte & Neumann (VLDB 2006) join-order DP, reproduced.

A production-quality reimplementation of the paper *"Analysis of Two
Existing and One New Dynamic Programming Algorithm for the Generation of
Optimal Bushy Join Trees without Cross Products"*: the DPsize, DPsub and
DPccp enumeration algorithms, the csg-cmp-pair machinery (EnumerateCsg /
EnumerateCmp), the analytical counter formulas of §2, and a benchmark
harness regenerating every table and figure of the evaluation.

Quick start::

    from repro import DPccp, star_graph, zipfian_catalog

    graph = star_graph(6, selectivity=0.01)
    result = DPccp().optimize(graph, catalog=zipfian_catalog(6))
    print(result.plan)                       # the optimal bushy tree
    print(result.counters.inner_counter)     # == #ccp: no wasted work
"""

from repro.catalog import (
    Catalog,
    RelationStats,
    random_catalog,
    uniform_catalog,
    zipfian_catalog,
)
from repro.core import (
    ALGORITHMS,
    AdaptiveOptimizer,
    CounterSet,
    DPall,
    DPccp,
    DPsize,
    DPsizeBasic,
    DPsub,
    DPsubBasic,
    ExhaustiveOptimizer,
    GreedyOperatorOrdering,
    IKKBZ,
    IterativeDP,
    JoinOrderer,
    LeftDeepDP,
    OptimizationResult,
    PlanTable,
    QuickPick,
    TopDownBB,
    make_algorithm,
    optimize,
)
from repro.frontend import parse_query
from repro.cost import CardinalityEstimator, CostModel, CoutModel, DiskCostModel
from repro.errors import (
    CatalogError,
    CrossProductError,
    DisconnectedGraphError,
    EmptyQueryError,
    GraphError,
    OptimizerError,
    PlanError,
    ReproError,
    ServiceError,
    UnknownRelationError,
    WorkloadError,
)
from repro.graph import (
    JoinEdge,
    QueryGraph,
    QueryGraphBuilder,
    chain_graph,
    clique_graph,
    cycle_graph,
    grid_graph,
    random_connected_graph,
    random_tree_graph,
    star_graph,
)
from repro.parallel import PlanningPool
from repro.plans import JoinTree, render_indented, render_inline, validate_plan
from repro.service import PlanCache, PlanRequest, PlanResponse, PlanService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "DPsize",
    "DPsub",
    "DPccp",
    "DPsizeBasic",
    "DPsubBasic",
    "DPall",
    "LeftDeepDP",
    "QuickPick",
    "IterativeDP",
    "TopDownBB",
    "ExhaustiveOptimizer",
    "GreedyOperatorOrdering",
    "IKKBZ",
    "AdaptiveOptimizer",
    "JoinOrderer",
    "parse_query",
    "OptimizationResult",
    "CounterSet",
    "PlanTable",
    "ALGORITHMS",
    "make_algorithm",
    "optimize",
    # graphs
    "QueryGraph",
    "JoinEdge",
    "QueryGraphBuilder",
    "chain_graph",
    "cycle_graph",
    "star_graph",
    "clique_graph",
    "grid_graph",
    "random_tree_graph",
    "random_connected_graph",
    # catalog & cost
    "Catalog",
    "RelationStats",
    "uniform_catalog",
    "random_catalog",
    "zipfian_catalog",
    "CostModel",
    "CoutModel",
    "DiskCostModel",
    "CardinalityEstimator",
    # plans
    "JoinTree",
    "render_inline",
    "render_indented",
    "validate_plan",
    # parallel planning
    "PlanningPool",
    # service layer
    "PlanService",
    "PlanRequest",
    "PlanResponse",
    "PlanCache",
    # errors
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "UnknownRelationError",
    "PlanError",
    "CrossProductError",
    "OptimizerError",
    "EmptyQueryError",
    "CatalogError",
    "WorkloadError",
    "ServiceError",
]

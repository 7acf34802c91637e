"""Hypergraph join enumeration — the DPccp line extended (DPhyp).

The paper closes the simple-graph case; its successor ("Dynamic
Programming Strikes Back", Moerkotte & Neumann, SIGMOD 2008) extends
csg-cmp-pair enumeration to *hypergraphs*, where a join predicate may
connect two sets of relations (as produced by complex predicates like
``R1.a + R2.b = R3.c`` and by outerjoin reordering constraints). This
subpackage implements that extension as the natural "future work" of
the reproduced paper:

* :class:`Hypergraph` — nodes plus hyperedges ``(u, w)`` between
  disjoint relation sets; simple graphs embed via
  :meth:`Hypergraph.from_query_graph`.
* :class:`DPhyp` — the hypergraph-aware DP enumerator; on a simple
  graph it degenerates to exactly DPccp's csg-cmp-pair count.
* :class:`HyperCoutModel` — C_out with containment-based cardinality
  estimation over hyperedges.
* :class:`ExhaustiveHyperOptimizer` — the independent optimality
  oracle used by the tests.
"""

from repro.hyper.builder import HypergraphBuilder
from repro.hyper.cost import HyperCoutModel
from repro.hyper.dphyp import DPhyp
from repro.hyper.exhaustive import ExhaustiveHyperOptimizer
from repro.hyper.hypergraph import Hyperedge, Hypergraph

__all__ = [
    "Hyperedge",
    "Hypergraph",
    "HypergraphBuilder",
    "DPhyp",
    "HyperCoutModel",
    "ExhaustiveHyperOptimizer",
]

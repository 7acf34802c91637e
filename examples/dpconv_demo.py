#!/usr/bin/env python3
"""DPconv in miniature: the subset-convolution sweep vs classic DPsub.

DPconv (arxiv 2409.08013, post-paper) exploits that under C_out the
cardinality of a join over a relation set does not depend on *how* the
set is split, so the DP decouples into a value-only min-plus sweep over
the 2^n lattice plus an O(n) plan reconstruction — the cost model is
invoked exactly n - 1 times instead of once per candidate pair. This
demo plans the same clique with DPsub and with both DPconv backends,
checks the costs agree, and prints where the work went.

Run with::

    python examples/dpconv_demo.py [n]
"""

from __future__ import annotations

import math
import sys

from repro import DPsub
from repro.bench.timer import measure_seconds
from repro.core.dpconv import DPconv, _numpy_module
from repro.graph.generators import clique_graph
from repro.plans.visitors import validate_plan


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    graph = clique_graph(n)

    contenders = [("DPsub", DPsub()), ("DPconv[python]", DPconv(backend="python"))]
    if _numpy_module() is not None:
        contenders.append(("DPconv[numpy]", DPconv(backend="numpy")))
    else:
        print("(numpy not available — showing the stdlib sweep only)\n")

    print(f"clique, n = {n}\n")
    header = (
        f"{'engine':<16} {'time (ms)':>10} {'priced joins':>13} "
        f"{'inner loop':>11}"
    )
    print(header)
    print("-" * len(header))

    results = {}
    for label, engine in contenders:
        seconds = measure_seconds(
            lambda engine=engine: engine.optimize(graph), min_total_seconds=0.1
        )
        result = engine.optimize(graph)
        validate_plan(result.plan, graph)
        results[label] = result
        print(
            f"{label:<16} {seconds * 1000:>10.2f} "
            f"{result.counters.create_join_tree_calls:>13,} "
            f"{result.counters.inner_counter:>11,}"
        )

    baseline = results["DPsub"]
    for label, result in results.items():
        assert math.isclose(result.cost, baseline.cost, rel_tol=1e-9), label
    print(f"\nall engines agree: optimal C_out = {baseline.cost:,.0f}")

    convolved = results["DPconv[python]"]
    print(
        f"lattice passes: {convolved.counters.extra['lattice_passes']} "
        f"(= n - 1); convolution pairs visited: "
        f"{convolved.counters.extra['convolution_pairs']:,}"
    )
    print(
        "DPsub prices a join candidate per inner-loop step; DPconv visits\n"
        "the same split lattice as pure float min-plus work and prices\n"
        f"only the {n - 1} joins of the winning tree afterwards."
    )


if __name__ == "__main__":
    main()

"""Overhead guard: obs off means no obs work on the enumeration hot path.

Two layers of protection, both deterministic:

* a *structural* guarantee — with instrumentation enabled, the number
  of obs API calls per run is a small constant (span + one counter
  publication), never proportional to ``InnerCounter``; with it
  disabled (``None``), the enumerator cannot touch obs at all because
  no object is ever passed in. This is the property that actually
  keeps the fast path fast.
* a *call-count* check — an instrumented run makes the same Python
  function calls as an uninstrumented one plus a constant: the same
  number on a clique of 4 and of 9 relations, far below the ~19k
  inner iterations of the larger one. An obs call on the inner loop
  (the bug this guards against) would add one call or more per
  iteration. Wall time is left to the benches: a timed ratio here
  failed on loaded hosts without any change to the code.
"""

from __future__ import annotations

import gc
import sys

from repro.core import DPccp, DPsub
from repro.graph.generators import chain_graph, clique_graph
from repro.obs import Instrumentation


class SpyInstrumentation(Instrumentation):
    """Counts every obs API invocation."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def span(self, name, **attributes):
        self.calls += 1
        return super().span(name, **attributes)

    def count(self, name, amount=1):
        self.calls += 1
        super().count(name, amount)

    def observe(self, name, seconds):
        self.calls += 1
        super().observe(name, seconds)

    def record_optimization(self, result):
        self.calls += 1
        super().record_optimization(result)


class TestStructuralGuarantee:
    def test_obs_calls_are_constant_per_run(self):
        """Obs traffic must not scale with the enumeration's work."""
        small, large = chain_graph(4), chain_graph(14)
        calls = {}
        for label, graph in (("small", small), ("large", large)):
            spy = SpyInstrumentation()
            DPccp().optimize(graph, instrumentation=spy)
            calls[label] = spy.calls
        # 14 relations do ~30x the inner-loop work of 4; obs traffic
        # stays identical because publication happens once per run.
        assert calls["small"] == calls["large"]
        assert calls["large"] <= 4

    def test_dpsub_hot_loop_is_obs_free(self):
        """57k inner iterations, still O(1) obs calls."""
        spy = SpyInstrumentation()
        result = DPsub().optimize(clique_graph(10), instrumentation=spy)
        assert result.counters.inner_counter > 50_000
        assert spy.calls <= 4

    def test_counters_identical_with_and_without_obs(self):
        """Instrumentation must observe, never perturb."""
        graph = chain_graph(9)
        plain = DPccp().optimize(graph)
        observed = DPccp().optimize(graph, instrumentation=Instrumentation())
        assert plain.counters.as_dict() == observed.counters.as_dict()
        assert plain.cost == observed.cost
        assert plain.table_probes == observed.table_probes


def _python_calls(run) -> int:
    """Python function calls made by ``run()`` (``sys.setprofile`` events).

    The cyclic collector is off meanwhile, so finalizers of garbage
    left by earlier tests cannot add calls at random points.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


class TestTimingGuard:
    def test_instrumented_run_is_not_slower(self):
        algorithm = DPsub()
        obs = Instrumentation()
        added = {}
        for n in (4, 9):
            graph = clique_graph(n)
            # Warm up both paths (lazy imports, first-use caches).
            algorithm.optimize(graph)
            algorithm.optimize(graph, instrumentation=obs)
            disabled = _python_calls(lambda: algorithm.optimize(graph))
            enabled = _python_calls(
                lambda: algorithm.optimize(graph, instrumentation=obs)
            )
            added[n] = enabled - disabled
        inner = algorithm.optimize(clique_graph(9)).counters.inner_counter
        assert inner > 18_000
        assert added[9] == added[4], (
            f"instrumentation added {added[4]} Python calls on clique-4 but "
            f"{added[9]} on clique-9 — obs work leaked onto the hot path"
        )
        assert 0 < added[9] < inner // 100

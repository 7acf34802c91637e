"""Unit tests for spans, nesting, and the tracer's retention rules."""

from __future__ import annotations

import threading
import time

from repro.obs import Instrumentation, Tracer, render_span_tree


class TestNesting:
    def test_child_spans_nest_under_the_active_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-2"):
                pass
        assert [child.name for child in root.children] == ["child-1", "child-2"]
        assert root.children[0].children[0].name == "grandchild"
        assert len(tracer) == 1  # only the root is retained as a root

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [span.name for span in tracer.last_root().walk()]
        assert names == ["a", "b", "c", "d"]

    def test_timings_are_populated_and_ordered(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        outer = tracer.last_root()
        inner = outer.children[0]
        assert inner.wall_seconds >= 0.002
        assert outer.wall_seconds >= inner.wall_seconds
        assert outer.cpu_seconds >= 0.0

    def test_blocked_span_is_not_charged_another_threads_cpu(self):
        tracer = Tracer()
        done = threading.Event()

        def spin():
            # Burn 150 ms of this thread's own CPU, not wall time.
            started = time.thread_time()
            while time.thread_time() - started < 0.150:
                pass
            done.set()

        with tracer.span("service.wait") as span:
            worker = threading.Thread(target=spin)
            worker.start()
            assert done.wait(timeout=30.0)
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert span.cpu_seconds < 0.05

    def test_attributes_can_be_added_while_open(self):
        tracer = Tracer()
        with tracer.span("request", n=5) as span:
            span.attributes["outcome"] = "hit"
        root = tracer.last_root()
        assert root.attributes == {"n": 5, "outcome": "hit"}

    def test_exception_still_closes_and_retains_span(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert tracer.last_root().name == "boom"
        assert len(tracer) == 1


class TestRetention:
    def test_capacity_bounds_retained_roots(self):
        tracer = Tracer(capacity=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert [root.name for root in tracer.roots()] == ["s7", "s8", "s9"]

    def test_roots_filter_by_name(self):
        tracer = Tracer()
        for name in ("a", "b", "a"):
            with tracer.span(name):
                pass
        assert len(tracer.roots("a")) == 2
        assert len(tracer.roots("b")) == 1

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.roots() == []
        assert tracer.last_root() is None

    def test_threads_build_independent_trees(self):
        tracer = Tracer()

        def worker(label: str):
            with tracer.span(label):
                with tracer.span(f"{label}-child"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.roots()
        assert len(roots) == 4  # one root per thread, never cross-nested
        for root in roots:
            assert [child.name for child in root.children] == [f"{root.name}-child"]


class TestRendering:
    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("root", topology="star") as span:
            with tracer.span("leaf"):
                pass
        text = render_span_tree(tracer.last_root())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "topology=star" in lines[0]
        assert lines[1].startswith("  leaf")
        assert "wall=" in lines[0] and "cpu=" in lines[0]

    def test_as_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", k=1):
            with tracer.span("b"):
                pass
        data = tracer.last_root().as_dict()
        assert data["name"] == "a"
        assert data["attributes"] == {"k": 1}
        assert data["children"][0]["name"] == "b"
        assert data["wall_ms"] >= data["children"][0]["wall_ms"]


class TestDisabledInstrumentation:
    def test_disabled_span_records_nothing(self):
        obs = Instrumentation(enabled=False)
        with obs.span("invisible") as span:
            assert span is None
        obs.count("c", 5)
        obs.observe("h", 0.1)
        assert len(obs.tracer) == 0
        assert obs.counters.snapshot() == {}
        assert obs.histograms.snapshot() == {}

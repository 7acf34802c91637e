"""Smoke tests for the LinDP ladder benchmark (BENCH_lindp.json)."""

from __future__ import annotations

import json

from repro.bench.lindp_bench import (
    LADDER_SECONDS_GATE,
    QUALITY_RATIO_GATE,
    check_lindp_gate,
    render_lindp_bench,
    run_lindp_bench,
)
from repro.bench.reporting import write_json

TINY_QUALITY = {"chain": (5,), "clique": (5,)}
TINY_LADDER = {"chain": (25,), "star": (25,)}


def tiny_results():
    return run_lindp_bench(
        quality_sizes=TINY_QUALITY, ladder_sizes=TINY_LADDER, seed=3
    )


class TestBench:
    def test_structure_and_gates(self):
        results = tiny_results()
        assert results["benchmark"] == "lindp_ladder"
        assert results["gates"] == {
            "quality_ratio": QUALITY_RATIO_GATE,
            "ladder_seconds": LADDER_SECONDS_GATE,
        }
        assert len(results["quality"]) == 2
        assert len(results["ladder"]) == 2
        for cell in results["quality"]:
            assert cell["ratio_vs_exact"] >= 1.0 - 1e-9
            assert cell["ratio_vs_goo"] <= 1.0 + 1e-9
        for cell in results["ladder"]:
            assert cell["rung"] == "lindp"  # n=25 is past every ceiling
            assert cell["plan_valid"]
        assert check_lindp_gate(results) == []

    def test_gate_flags_quality_violation(self):
        results = tiny_results()
        results["quality"][0]["ratio_vs_exact"] = 3.0
        results["quality"][0]["lindp_cost"] = (
            results["quality"][0]["goo_cost"] * 2.0
        )
        failures = check_lindp_gate(results)
        assert len(failures) == 2
        assert "exact optimum" in failures[0]
        assert "GOO" in failures[1]

    def test_gate_flags_stall(self):
        results = tiny_results()
        results["ladder"][0]["seconds"] = LADDER_SECONDS_GATE + 1
        failures = check_lindp_gate(results)
        assert len(failures) == 1
        assert "gate" in failures[0]

    def test_render_and_write(self, tmp_path):
        results = tiny_results()
        text = render_lindp_bench(results)
        assert "quality (LinDP vs exact vs GOO):" in text
        assert "ladder wall-clock" in text
        path = write_json(tmp_path / "BENCH_lindp.json", results)
        assert json.loads(path.read_text())["benchmark"] == "lindp_ladder"

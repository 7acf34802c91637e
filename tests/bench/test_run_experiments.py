"""Unit tests for the standalone experiment harness."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HARNESS_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"
sys.path.insert(0, str(HARNESS_DIR.parent))

from benchmarks.run_experiments import (  # noqa: E402
    ALL_ARTIFACTS,
    produce,
    write_experiments_md,
)


class TestProduce:
    def test_fig3_contains_paper_values(self):
        text = produce("fig3", budget=10_000, min_seconds=0.001)
        assert "309338182241" in text  # clique n=20 DPsize
        assert "cells match" in text

    def test_relative_artifact_renders(self):
        text = produce("fig8", budget=500, min_seconds=0.001)
        assert "Figure 8" in text
        assert "DPsize/DPccp" in text
        assert "log scale" in text  # ASCII chart appended

    def test_fig12_renders(self):
        text = produce("fig12", budget=200, min_seconds=0.001)
        assert "Figure 12" in text
        assert "paper C++" in text

    def test_model_artifact(self):
        text = produce("model", budget=0, min_seconds=0.005)
        assert "R^2" in text

    def test_artifact_list_complete(self):
        assert set(ALL_ARTIFACTS) == {
            "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
            "quality", "model",
        }


class TestWriteExperimentsMd:
    def test_writes_sections_in_order(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(
            target,
            {"fig3": "FIG3-CONTENT", "model": "MODEL-CONTENT"},
            budget=123,
        )
        text = target.read_text()
        assert "FIG3-CONTENT" in text
        assert "MODEL-CONTENT" in text
        assert text.index("FIG3-CONTENT") < text.index("MODEL-CONTENT")
        assert "123" in text

    def test_skips_missing_sections(self, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(target, {"fig9": "ONLY"}, budget=1)
        text = target.read_text()
        assert "ONLY" in text
        assert "## fig8" not in text

"""Tests of the replay benchmark itself, at ``--smoke`` size.

Run with ``PYTHONPATH=src python -m pytest replaybench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from replaybench.common import BENCHMARK_FILE, ROOT, WORKLOADS, Tally, benchmark_spec, ensure_repro

ensure_repro()

import repro.service.optimizer_service as optimizer_service  # noqa: E402
from repro.service.optimizer_service import PlanService  # noqa: E402

from replaybench import cold_ladder, deadline_http, hot_repeat, sql_exec  # noqa: E402
from replaybench.compare import compare  # noqa: E402
from replaybench.runner import run_workload  # noqa: E402

SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module")
def records():
    return {name: run_workload(name, 3, SMOKE_SECONDS, trace=False, smoke=True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced_records():
    return {name: run_workload(name, 3, SMOKE_SECONDS, trace=True, smoke=True) for name in WORKLOADS}


def test_every_workload_reports_every_end_to_end_metric_without_failures(records):
    for name, record in records.items():
        assert record["failed"] == 0, (name, record["failures"])
        assert record["info"]["fail_share"]["value"] == 0.0
        for metric in benchmark_spec()["end_to_end"]:
            entry = record["metrics"][metric["name"]]
            assert entry["value"] > 0, (name, metric["name"])
            assert entry["n"] >= 1


def test_traced_runs_cover_every_per_layer_metric(traced_records):
    for name, record in traced_records.items():
        assert record["failed"] == 0, (name, record["failures"])
    measured = {
        metric
        for record in traced_records.values()
        for metric, value in record["layers"].items()
        if value > 0
    }
    wanted = {metric["name"] for metric in benchmark_spec()["per_layer"]}
    never_at_smoke_size = {
        # IDP runs only in full-size cold decks, GOO only for the fourth
        # heavy kind of deadline_http.
        *(f"core.{alg}.{counter}" for alg in ("idp", "goo")
          for counter in ("calls", "ms_p50", "inner_counter", "ccp", "ns_per_inner")),
        "degrade.rung.goo",
        "core.lindp.ccp",  # LinDP counts splits, not csg-cmp pairs
        "degrade.rung.rank-2",  # needs a service with k_best >= 2
        "plancache.coalesced",  # needs concurrent identical misses
        "server.rejected",  # needs overload
    }
    assert wanted - measured <= never_at_smoke_size


@pytest.mark.parametrize("module", [hot_repeat, cold_ladder, deadline_http, sql_exec])
def test_input_digest_follows_the_seed(module):
    first = module.Inputs(5, SMOKE_SECONDS, smoke=True).digest()
    assert module.Inputs(5, SMOKE_SECONDS, smoke=True).digest() == first
    assert module.Inputs(6, SMOKE_SECONDS, smoke=True).digest() != first


def test_an_injected_exception_counts_in_fail_share(monkeypatch):
    original = PlanService.plan_request
    calls = []

    def flaky(self, request):
        calls.append(None)
        if len(calls) == 100:
            raise RuntimeError("injected")
        return original(self, request)

    monkeypatch.setattr(PlanService, "plan_request", flaky)
    record = run_workload("hot_repeat", 1, 0.3, trace=False, smoke=True)
    assert record["failed"] == 1
    assert record["info"]["fail_share"]["value"] == pytest.approx(1 / record["attempted"])
    assert "injected" in record["failures"][0]


def test_an_injected_cross_product_counts_in_fail_share(monkeypatch):
    original = optimizer_service.relabel_plan

    def swapped(plan, old_of_new, names=None):
        # Swap the labels of relations 0 and 2: still every relation
        # once, but joins of chains and stars lose their edges.
        order = list(old_of_new)
        zero, two = order.index(0), order.index(2)
        order[zero], order[two] = 2, 0
        return original(plan, order, names)

    monkeypatch.setattr(optimizer_service, "relabel_plan", swapped)
    record = run_workload("hot_repeat", 1, 0.3, trace=False, smoke=True)
    assert record["failed"] > 0
    assert record["info"]["fail_share"]["value"] > 0
    assert any("CrossProductError" in message for message in record["failures"])


def test_a_wrong_exact_cost_fails_the_dpccp_resolve():
    data = cold_ladder.Inputs(1, SMOKE_SECONDS, smoke=True)
    slot, instance = data.decks[0][0]
    request = optimizer_service.PlanRequest(*instance)
    tally = Tally()
    request_id = tally.attempt()
    cold_ladder.check_sample([(request_id, slot, request, 1e-3)], tally)
    assert tally.failed == 1


def test_compare_reports_no_change_for_two_copies_of_one_run(records):
    rows = compare(list(records.values()), list(records.values()))
    assert rows
    assert {row["verdict"] for row in rows} == {"no change"}


def test_compare_flags_a_regression_beyond_the_bound(records):
    slower = json.loads(json.dumps(list(records.values())))
    for record in slower:
        record["metrics"]["latency_p50_ms"]["value"] *= 2
    rows = compare(list(records.values()), slower)
    verdicts = {row["workload"]: row["verdict"] for row in rows if row["metric"] == "latency_p50_ms"}
    assert set(verdicts.values()) == {"worse"}


def test_without_the_program_source_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "replaybench", tmp_path / "replaybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "-m", "replaybench", "run", "--workload", "hot_repeat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

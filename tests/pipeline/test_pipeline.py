"""End-to-end pipeline: differential identity, accuracy, service, CLI."""

import json
from statistics import median

import pytest

from repro.cli import main
from repro.core import make_algorithm
from repro.frontend.parser import parse_query
from repro.io import plan_to_dict
from repro.pipeline import run_pipeline, tpch_workload
from repro.service import PlanService

WORKLOAD = tpch_workload(scale=0.15, seed=42)


def filter_free_queries():
    return [q for q in WORKLOAD.queries if " < " not in q.sql and " >= " not in q.sql
            and " = 0" not in q.sql]


class TestDifferentialIdentity:
    @pytest.mark.parametrize("algorithm", ["dpsize", "dpsub", "dpccp"])
    def test_independence_plans_bit_identical_to_direct_optimizer(
        self, algorithm
    ):
        queries = filter_free_queries()
        assert queries, "workload must contain filter-free queries"
        for query in queries:
            graph, catalog = parse_query(query.sql)
            direct = make_algorithm(algorithm).optimize(graph, catalog=catalog)
            piped = run_pipeline(
                query.sql,
                estimator="independence",
                algorithm=algorithm,
                execute=False,
            )
            assert plan_to_dict(piped.plan) == plan_to_dict(direct.plan), (
                query.name
            )
            assert piped.optimization.cost == direct.cost


class TestEndToEnd:
    def test_executes_and_reports(self):
        query = WORKLOAD.queries[0]
        result = run_pipeline(
            query.sql, tables=WORKLOAD.tables, estimator="independence"
        )
        assert result.executed
        assert result.report.observations
        assert all(obs.q_error >= 1.0 for obs in result.report.observations)
        # physical labels replaced the logical "Join"
        operators = {obs.operator for obs in result.report.observations}
        assert operators <= {
            "HashJoin",
            "NestedLoopJoin",
            "SortMergeJoin",
            "CrossProduct",
        }

    def test_no_tables_means_plan_only(self):
        result = run_pipeline(WORKLOAD.queries[1].sql, execute=False)
        assert not result.executed
        assert result.report is None
        assert result.physical_plan is not None

    def test_estimator_strategies_agree_on_result_rows(self):
        query = WORKLOAD.queries[1]
        independence = run_pipeline(
            query.sql, tables=WORKLOAD.tables, estimator="independence"
        )
        statistics = run_pipeline(
            query.sql, tables=WORKLOAD.tables, estimator="statistics"
        )
        # different estimates, same query semantics
        assert (
            independence.report.result_rows == statistics.report.result_rows
        )

    def test_statistics_beats_independence_on_skewed_workload(self):
        pooled = {"independence": [], "statistics": []}
        for query in WORKLOAD.queries:
            for estimator in pooled:
                result = run_pipeline(
                    query.sql, tables=WORKLOAD.tables, estimator=estimator
                )
                pooled[estimator].extend(
                    obs.q_error for obs in result.report.observations
                )
        assert median(pooled["statistics"]) < median(pooled["independence"])

    def test_filters_shrink_actual_results(self):
        filtered_query = next(
            q for q in WORKLOAD.queries if q.name == "filtered_parts"
        )
        result = run_pipeline(
            filtered_query.sql, tables=WORKLOAD.tables, estimator="statistics"
        )
        unfiltered_lineitem = len(WORKLOAD.tables["lineitem"])
        # the filtered join cannot produce more rows than exist pre-filter
        assert result.report.result_rows <= unfiltered_lineitem * 50


class TestPlanServiceSql:
    def test_plan_sql_caches_repeated_text(self):
        with PlanService() as service:
            first = service.plan_sql(WORKLOAD.queries[1].sql)
            second = service.plan_sql(WORKLOAD.queries[1].sql)
        assert first.plan is not None
        assert not first.cache_hit
        assert second.cache_hit

    def test_estimators_do_not_share_cache_entries(self):
        query = WORKLOAD.queries[1]
        with PlanService() as service:
            independence = service.plan_sql(query.sql)
            statistics = service.plan_sql(
                query.sql, tables=WORKLOAD.tables, estimator="statistics"
            )
        assert not statistics.cache_hit
        assert independence.cost != statistics.cost


class TestCli:
    def test_single_query_mode(self, capsys):
        exit_code = main(
            [
                "pipeline",
                "--query",
                "orders_chain",
                "--scale",
                "0.1",
                "--estimator",
                "both",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "independence" in out and "statistics" in out

    def test_battery_writes_artifact_and_gates(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_pipeline.json"
        exit_code = main(
            ["pipeline", "--scale", "0.1", "--json-out", str(artifact)]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "estimation-accuracy gate: pass" in out
        results = json.loads(artifact.read_text())
        assert results["benchmark"] == "pipeline_estimation_accuracy"
        assert {"cpu_count", "platform", "python"} <= set(results["host"])
        assert results["differential_plan_identity"] is True
        aggregate = results["aggregate"]
        assert (
            aggregate["statistics"]["median_q_error"]
            < aggregate["independence"]["median_q_error"]
        )

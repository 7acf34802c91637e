"""Runs one workload and returns its run record.

An untraced run measures every end-to-end metric; a traced run
(``trace=True``) spends the first half of its time untraced and the
second half with the layer wrappers installed, and reports the
per-layer metrics plus ``trace_overhead``, the traced throughput over
the untraced one.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from replaybench.common import OUT_DIR, ROOT, Tally, host_facts, latency_metrics, median, quantile
from replaybench.trace import Tracer, installed, layer_metrics, load_spans

SETUP_REPEATS = 5
LATENESS_LIMIT_SECONDS = 0.005


def _rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


def _closed_loop(latencies: list[float]) -> dict:
    metrics = latency_metrics(latencies)
    metrics["throughput_rps"] = {"value": _rate(latencies), "unit": "1/s", "n": len(latencies)}
    return metrics


def _info(value, unit: str, n: int | None = None) -> dict:
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def setup_samples(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up seconds from ``repeats`` fresh processes."""
    if workload == "deadline_http":
        from replaybench.deadline_http import first_response_seconds

        return [first_response_seconds() for _ in range(repeats)]
    samples = []
    for _ in range(repeats):
        completed = subprocess.run(
            [sys.executable, "-m", "replaybench.setup_probe", workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _hot(seed, seconds, trace, smoke, tally, record) -> None:
    from replaybench import hot_repeat as workload

    data = workload.Inputs(seed, seconds, smoke)
    record["input_digest"] = data.digest()
    service = workload.make_service()
    try:
        started = time.perf_counter()
        costs = workload.warm(service, data, tally)
        record["info"]["warmup_s"] = _info(time.perf_counter() - started, "s", 2 * len(data.queries))
        if not trace:
            latencies, _, hits = workload.replay(service, data, costs, tally, seconds)
            record["metrics"].update(_closed_loop(latencies))
            record["info"]["repeat_share"] = _info(hits / max(1, len(latencies)), "ratio", len(latencies))
            return
        plain, index, _ = workload.replay(service, data, costs, tally, seconds / 2)
        evictions = service.cache_stats().evictions
        tracer = Tracer()
        with installed(tracer):
            traced, _, _ = workload.replay(service, data, costs, tally, seconds / 2, start=index)
        layers = layer_metrics(tracer.spans)
        layers["plancache.evictions"] = float(service.cache_stats().evictions - evictions)
    finally:
        service.close()
    layers["trace_overhead"] = _rate(traced) / _rate(plain)
    record["layers"] = layers
    tracer.dump(OUT_DIR / "trace_hot_repeat.json")


def _cold(seed, seconds, trace, smoke, tally, record) -> None:
    from replaybench import cold_ladder as workload

    data = workload.Inputs(seed, seconds, smoke)
    record["input_digest"] = data.digest()
    service = workload.make_service()
    try:
        if not trace:
            latencies, _, sampled = workload.replay(service, data, tally, seconds)
            record["metrics"].update(_closed_loop(latencies))
        else:
            plain, deck, sampled = workload.replay(service, data, tally, seconds / 2)
            evictions = service.cache_stats().evictions
            tracer = Tracer()
            with installed(tracer):
                traced, _, more = workload.replay(service, data, tally, seconds / 2, first_deck=deck)
            sampled += more
            layers = layer_metrics(tracer.spans)
            layers["plancache.evictions"] = float(service.cache_stats().evictions - evictions)
    finally:
        service.close()
    workload.check_sample(sampled, tally)
    record["info"]["resolved_sample"] = _info(len(sampled), "count")
    if trace:
        layers["trace_overhead"] = _rate(traced) / _rate(plain)
        record["layers"] = layers
        tracer.dump(OUT_DIR / "trace_cold_ladder.json")


def _http_phase(data, tally, trace_out=None) -> dict:
    from replaybench import deadline_http as workload

    with workload.Server(trace_out) as server:
        started = time.perf_counter()
        costs = workload.warm(server.port, data, tally)
        warmup = time.perf_counter() - started
        before = workload.snapshot(server.port)["cache"]["evictions"]
        window_start = time.perf_counter()
        numbers = workload.replay(server.port, data, costs, tally)
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
        numbers["window"] = (window_start, time.perf_counter())
        numbers["evictions"] = workload.snapshot(server.port)["cache"]["evictions"] - before
        # The traced phase skips the untimed re-plans so its spans hold
        # only the replayed traffic.
        numbers["ratios"] = [] if trace_out else workload.optimum_ratios(server.port, data, numbers["heavy"], tally)
    numbers["warmup_s"] = warmup
    return numbers


def _http(seed, seconds, trace, smoke, tally, record) -> None:
    from replaybench import deadline_http as workload

    data = workload.Inputs(seed, seconds / 2 if trace else seconds, smoke)
    record["input_digest"] = data.digest()
    plain = _http_phase(data, tally)
    info = record["info"]
    info["warmup_s"] = _info(plain["warmup_s"], "s", 2 * len(data.light))
    attempted = len(plain["latencies"])
    degraded = sum(plain["rungs"].values())
    info["degraded_share"] = _info(degraded / max(1, attempted), "ratio", attempted)
    info["cost_ratio"] = _info(sum(plain["ratios"]) / max(1, len(plain["ratios"])), "ratio", len(plain["ratios"]))
    info["slo_rate_rps"] = _info(max((r for r, s in plain["steps"].items() if s["meets_slo"]), default=0.0), "1/s")
    lateness = quantile(plain["lateness"], 0.99)
    info["lateness_p99_ms"] = _info(lateness * 1e3, "ms", len(plain["lateness"]))
    record["steps"] = {str(rate): step for rate, step in plain["steps"].items()}
    if lateness > LATENESS_LIMIT_SECONDS:
        record["invalid"] = f"generator lateness p99 {lateness * 1e3:.2f} ms exceeds 5 ms"
    if not trace:
        record["metrics"].update(latency_metrics(plain["latencies"]))
        record["metrics"]["throughput_rps"] = _info(plain["throughput"], "1/s", attempted)
        return
    trace_file = OUT_DIR / "trace_deadline_http.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    traced = _http_phase(data, tally, trace_out=trace_file)
    start, end = traced["window"]
    layers = layer_metrics([span for span in load_spans(trace_file) if start <= span.start <= end])
    layers.update({
        "plancache.evictions": float(traced["evictions"]),
        "server.overhead_ms_p50": median(traced["overheads"]) * 1e3,
        "server.rejected": float(traced["rejected"]),
        "degrade.share": info["degraded_share"]["value"],
        "degrade.cost_ratio": info["cost_ratio"]["value"],
        "server.slo_rate_rps": info["slo_rate_rps"]["value"],
        "trace_overhead": traced["throughput"] / plain["throughput"],
    })
    for rung in ("rank-2", "lindp", "goo"):
        layers[f"degrade.rung.{rung}"] = float(traced["rungs"].get(rung, 0))
    record["layers"] = layers


def _sql(seed, seconds, trace, smoke, tally, record) -> None:
    from replaybench import sql_exec as workload

    data = workload.Inputs(seed, seconds, smoke)
    record["input_digest"] = data.digest()
    started = time.perf_counter()
    data.analyze()
    record["info"]["warmup_s"] = _info(time.perf_counter() - started, "s", len(data.datasets))
    rows: dict = {}
    if not trace:
        latencies, _, q_errors, _ = workload.replay(data, tally, seconds, rows)
        metrics = _closed_loop(workload.typical(latencies))
        for entry in metrics.values():
            entry["n"] = sum(map(len, latencies.values()))
        record["metrics"].update(metrics)
        record["info"]["q_error_median"] = _info(median(q_errors), "ratio", len(q_errors))
        return
    plain, pass_index, q_errors, _ = workload.replay(data, tally, seconds / 2, rows)
    tracer = Tracer()
    with installed(tracer):
        traced, _, _, examined = workload.replay(data, tally, seconds / 2, rows, pass_index, tracer)
    layers = layer_metrics(tracer.spans)
    layers["exec.rows_examined_per_row"] = median(examined)
    layers["stats.q_error_median"] = median(q_errors)
    layers["trace_overhead"] = _rate(workload.typical(traced)) / _rate(workload.typical(plain))
    record["layers"] = layers
    tracer.dump(OUT_DIR / "trace_sql_exec.json")


RUNNERS = {"hot_repeat": _hot, "cold_ladder": _cold, "deadline_http": _http, "sql_exec": _sql}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; the record holds its metrics and checks."""
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "host_start": host_facts(), "metrics": {}, "info": {}, "invalid": None,
    }
    tally = Tally()
    if not trace:
        samples = setup_samples(name, seed, 1 if smoke else SETUP_REPEATS)
        record["metrics"]["setup_s"] = _info(median(samples), "s", len(samples))
        record["setup_samples"] = samples
    RUNNERS[name](seed, seconds, trace, smoke, tally, record)
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["failures"] = tally.messages
    record["info"]["fail_share"] = _info(tally.fail_share, "ratio", tally.attempted)
    record["host_end"] = host_facts()
    return record

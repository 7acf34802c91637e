"""``deadline_http``: the HTTP server under open-loop traffic with deadlines.

A ``replaybench.serve`` subprocess serves ``PlanService`` through
``PlanServer``. One asyncio thread drives it over two keep-alive
connections at three rate steps, 10, 20 and 30 requests per second.
Fifteen in sixteen requests are hot: Zipf over 128 warmed light
queries, 20% of them as ``/plan_sql``. Every sixteenth is heavy: a
fresh instance with a 25 ms deadline that takes at least three
deadlines to plan cold, so it degrades down the ladder while its
enumeration finishes in the server's background and competes with the
hits for the interpreter lock. Latency is timed from each request's
due time.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import random
import subprocess
import sys
import time

from repro.errors import ReproError
from repro.frontend.parser import parse_query_detailed
from repro.io import catalog_to_dict, graph_to_dict, plan_from_dict
from repro.plans.visitors import validate_plan

from replaybench import inputs
from replaybench.common import ROOT, Tally, digest, instance_key, median, quantile

#: Above 60 req/s the heavy requests' background enumeration saturates
#: the server; at 20/40/60 a slow spell of the host moved p95 by 20%
#: between runs, against 4% at 10/20/30.
RATES = (10.0, 20.0, 30.0)
SMOKE_RATES = (25.0,)
LIGHT_SHAPES = (("chain", 4, 12), ("cycle", 4, 12), ("star", 4, 10), ("tree", 4, 10))
SQL_SHARE = 0.2
HEAVY_EVERY = 16
DEADLINE_SECONDS = 0.025
#: Heavy kinds in rotation: three exact-routed shapes that degrade to
#: LinDP, and a LinDP-routed FK chain that degrades to GOO. Each takes
#: 75-140 ms to plan cold on a 2-core host, at least three deadlines.
HEAVY = (("star", 13, "light"), ("clique", 14, "light"), ("general", 13, "light"), ("chain", None, "fk"))
HEAVY_CHAIN_SIZES = (70, 73, 76, 80)
SLO_P90_SECONDS = 0.025


class Item:
    """One scheduled request: when it is due and what it sends."""

    __slots__ = ("due", "path", "message", "graph", "rank", "heavy")

    def __init__(self, due, path, body: dict, graph, rank=None, heavy=None) -> None:
        self.due = due
        self.path = path
        payload = json.dumps(body).encode()
        self.message = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode() + payload
        self.graph = graph
        #: Popularity rank of a hot request.
        self.rank = rank
        #: (graph, catalog) of a heavy request, re-planned for the optimum.
        self.heavy = heavy


def _plan_body(graph, catalog, deadline=None) -> dict:
    body = {"graph": graph_to_dict(graph), "catalog": catalog_to_dict(catalog)}
    if deadline is not None:
        body["deadline_seconds"] = deadline
    return body


class Inputs:
    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        rng = random.Random(f"deadline_http/{seed}")
        count = 16 if smoke else 128
        self.light = [inputs.light_query(s, n, rng) for s, n in inputs.ranked_templates(LIGHT_SHAPES, count)]
        self.sql = [inputs.to_sql(graph, catalog) for graph, catalog in self.light]
        self.sql_graphs = [parse_query_detailed(text).graph for text in self.sql]
        rates = SMOKE_RATES if smoke else RATES
        step_seconds = seconds / len(rates)
        self.steps = []  # (rate, first index, end index)
        self.schedule: list[Item] = []
        offset = 0.0
        for rate in rates:
            count_step = max(1, round(rate * step_seconds))
            # Jittered pacing, not Poisson: with exponential gaps the
            # bursts alone moved the median by 12% between seeds.
            gaps = [rng.uniform(0.5, 1.5) / rate for _ in range(count_step)]
            scale = step_seconds / sum(gaps)
            first = len(self.schedule)
            due = offset
            for gap in gaps:
                index = len(self.schedule)
                if index % HEAVY_EVERY == HEAVY_EVERY // 2:
                    shape, n, stats = HEAVY[(index // HEAVY_EVERY) % len(HEAVY)]
                    if n is None:
                        n = HEAVY_CHAIN_SIZES[(index // (HEAVY_EVERY * len(HEAVY))) % len(HEAVY_CHAIN_SIZES)]
                    graph, catalog = (inputs.light_query if stats == "light" else inputs.fk_query)(shape, n, rng)
                    body = _plan_body(graph, catalog, DEADLINE_SECONDS)
                    item = Item(due, "/plan", body, graph, heavy=(graph, catalog))
                else:
                    rank = inputs.zipf_draws(rng, count, 1)[0]
                    if rng.random() < SQL_SHARE:
                        item = Item(due, "/plan_sql", {"sql": self.sql[rank]}, self.sql_graphs[rank], rank)
                    else:
                        item = Item(due, "/plan", _plan_body(*self.light[rank]), self.light[rank][0], rank)
                self.schedule.append(item)
                due += gap * scale
            self.steps.append((rate, first, len(self.schedule)))
            offset += step_seconds

    def digest(self) -> str:
        return digest([instance_key(*q) for q in self.light] + [(i.due, i.message) for i in self.schedule])


class Server:
    """A ``replaybench.serve`` subprocess; a context manager."""

    def __init__(self, trace_out=None) -> None:
        command = [sys.executable, "-m", "replaybench.serve"]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the plan server exited before announcing its port")
        announced = json.loads(line)
        self.port = announced["port"]
        #: The server's perf_counter before its imports (CLOCK_MONOTONIC
        #: on Linux, so it compares with this process's clock).
        self.started = announced["started"]

    def stop(self) -> None:
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def post(connection: http.client.HTTPConnection, path: str, body: dict) -> tuple[int, dict]:
    connection.request("POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def snapshot(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", "/snapshot")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def first_response_seconds() -> float:
    """Boot a fresh server, wait for ``/healthz``, plan one query:
    seconds from before the server imported anything to that first
    correct response."""
    rng = random.Random("deadline_http/setup")
    graph, catalog = inputs.light_query("chain", 6, rng)
    with Server() as server:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            connection.request("GET", "/healthz")
            health = connection.getresponse()
            health.read()
            if health.status != 200:
                raise RuntimeError(f"/healthz answered {health.status}")
            status, payload = post(connection, "/plan", _plan_body(graph, catalog))
            elapsed = time.perf_counter() - server.started
        finally:
            connection.close()
    if status != 200:
        raise RuntimeError(f"set-up request answered {status}: {payload}")
    validate_plan(plan_from_dict(payload["plan"]), graph)
    return elapsed


def warm(port: int, data: Inputs, tally: Tally) -> dict:
    """Plan every light query in both forms; returns rank -> cost."""
    costs = {}
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for rank, (graph, catalog) in enumerate(data.light):
            for path, body, request_graph in (
                ("/plan", _plan_body(graph, catalog), graph),
                ("/plan_sql", {"sql": data.sql[rank]}, data.sql_graphs[rank]),
            ):
                request_id = tally.attempt()
                status, payload = post(connection, path, body)
                problem = _problem(status, payload, request_graph, costs.get(rank))
                if problem:
                    tally.fail(request_id, f"warm-up {path} rank {rank}: {problem}")
                else:
                    costs.setdefault(rank, payload["cost"])
    finally:
        connection.close()
    return costs


def _problem(status: int, payload, graph, expected: float | None) -> str | None:
    """What is wrong with one response, or ``None``."""
    if status != 200:
        return f"status {status}: {payload}"
    try:
        plan = plan_from_dict(payload["plan"])
        validate_plan(plan, graph)
    except ReproError as error:
        return f"invalid plan: {type(error).__name__}: {error}"
    cost = payload.get("cost")
    if not isinstance(cost, (int, float)) or not math.isfinite(cost) or cost != plan.cost:
        return f"bad cost {cost!r}"
    if expected is not None and not math.isclose(cost, expected, rel_tol=1e-9):
        return f"hit cost {cost!r} differs from warm-up cost {expected!r}"
    return None


async def _exchange(reader, writer, message: bytes) -> tuple[int, bytes]:
    writer.write(message)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _open_loop(port: int, schedule: list[Item]):
    """Send every item at its due time; returns (start, results, lateness).

    One connection carries the hot requests and the other the heavy
    ones, so a hit never waits in the client behind a degrading request.
    ``results[i]`` is ``(sent, done, status, body)`` in loop time, or
    ``None`` when the exchange failed. ``lateness[i]`` is how late the
    generator put item ``i`` on its connection's send queue.
    """
    loop = asyncio.get_running_loop()
    queues = (asyncio.Queue(), asyncio.Queue())
    results: list = [None] * len(schedule)

    async def connection(queue: asyncio.Queue) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                index = await queue.get()
                sent = loop.time()
                try:
                    status, body = await _exchange(reader, writer, schedule[index].message)
                    results[index] = (sent, loop.time(), status, body)
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                finally:
                    queue.task_done()
        finally:
            writer.close()

    connections = [asyncio.create_task(connection(queue)) for queue in queues]
    start = loop.time() + 0.05
    lateness = []
    for index, item in enumerate(schedule):
        due = start + item.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(loop.time() - due)
        queues[item.heavy is not None].put_nowait(index)
    try:
        for queue in queues:
            await asyncio.wait_for(queue.join(), timeout=60)
    finally:
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
    return start, results, lateness


def replay(port: int, data: Inputs, costs: dict, tally: Tally) -> dict:
    """Drive one schedule; check every response; return the phase's numbers."""
    start, results, lateness = asyncio.run(_open_loop(port, data.schedule))
    latencies = []
    overheads = []
    step_latencies = {rate: [] for rate, _, _ in data.steps}
    rate_of = {}
    for rate, first, end in data.steps:
        for index in range(first, end):
            rate_of[index] = rate
    heavy = []  # (request id, schedule index, payload)
    rejected = 0
    rungs: dict = {}
    last_done = start
    for index, (item, result) in enumerate(zip(data.schedule, results)):
        request_id = tally.attempt()
        if result is None:
            tally.fail(request_id, f"request {index} to {item.path}: connection failed")
            continue
        sent, done, status, body = result
        last_done = max(last_done, done)
        latency = done - (start + item.due)
        latencies.append(latency)
        step_latencies[rate_of[index]].append((item.due, latency))
        rejected += status == 429
        try:
            payload = json.loads(body)
        except ValueError:
            tally.fail(request_id, f"request {index}: body is not JSON")
            continue
        problem = _problem(status, payload, item.graph, None if item.heavy else costs.get(item.rank))
        if problem:
            tally.fail(request_id, f"request {index} to {item.path}: {problem}")
            continue
        overheads.append(done - sent - payload["elapsed_seconds"])
        if item.heavy:
            heavy.append((request_id, index, payload))
            if payload["degraded"]:
                rungs[payload["ladder_rung"]] = rungs.get(payload["ladder_rung"], 0) + 1
    steps = {}
    for rate, pairs in step_latencies.items():
        values = [latency for _, latency in pairs]
        quarter = max(1, len(pairs) // 4)
        first_quarter = median([latency for _, latency in pairs[:quarter]])
        last_quarter = median([latency for _, latency in pairs[-quarter:]])
        growing = last_quarter > 2 * first_quarter + 0.005
        p90 = quantile(values, 0.9)
        steps[rate] = {"p50_ms": median(values) * 1e3, "p90_ms": p90 * 1e3, "n": len(values),
                       "backlog_growing": growing, "meets_slo": p90 <= SLO_P90_SECONDS and not growing}
    return {
        "latencies": latencies,
        "throughput": len(latencies) / (last_done - start) if last_done > start else 0.0,
        "lateness": lateness,
        "overheads": overheads,
        "heavy": heavy,
        "rejected": rejected,
        "rungs": rungs,
        "steps": steps,
    }


def optimum_ratios(port: int, data: Inputs, heavy, tally: Tally) -> list[float]:
    """Re-plan each heavy instance without a deadline, untimed; returns
    returned cost / optimum per heavy request."""
    ratios = []
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for request_id, index, payload in heavy:
            graph, catalog = data.schedule[index].heavy
            status, best = post(connection, "/plan", _plan_body(graph, catalog))
            problem = _problem(status, best, graph, None)
            if problem:
                tally.fail(request_id, f"optimum of heavy request {index}: {problem}")
                continue
            ratio = payload["cost"] / best["cost"]
            if ratio < 1 - 1e-9:
                tally.fail(request_id, f"degraded cost beats the routed optimum by {1 - ratio:.3g}")
            ratios.append(ratio)
    finally:
        connection.close()
    return ratios

"""CI smoke test: boot the server, hammer it, verify a clean shutdown.

Run as ``python -m repro.server.smoke``. The script

1. starts a :class:`~repro.server.PlanServer` (sharded cache, k-best
   retention) on an ephemeral port,
2. fires a concurrent mixed workload from real HTTP clients — ``plan``
   bodies over several topologies, ``plan_sql`` texts, and malformed
   requests that must answer structured 4xx errors,
3. verifies every well-formed response carries a correct (fingerprint-
   stable) plan, the same cost and plan for every repeat of a body, and
   every malformed one a structured error,
4. shuts down and asserts **zero leaked threads and zero leaked
   asyncio tasks**, and
5. writes the server's final obs snapshot to ``--snapshot-out`` (CI
   uploads it as the job artifact).

Exit code 0 means every check passed; any failure raises and exits
non-zero, which is the whole CI contract.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.graph.generators import chain_graph, cycle_graph, star_graph
from repro.io import graph_to_dict
from repro.server import PlanServer, ServerConfig
from repro.service.optimizer_service import PlanService

__all__ = ["main", "run_smoke"]

_SQL = (
    "SELECT * FROM a(1000), b(2000), c(500) "
    "WHERE a.x = b.x [0.01] AND b.y = c.y [0.1]"
)


def _client_worker(
    port: int, worker_index: int, requests: int
) -> dict[str, int]:
    """One client thread: mixed valid/invalid traffic, all verified."""
    rng = random.Random(worker_index)
    graphs = [
        chain_graph(6, rng=random.Random(1)),
        star_graph(6, rng=random.Random(2)),
        cycle_graph(7, rng=random.Random(3)),
    ]
    bodies = [
        json.dumps({"graph": graph_to_dict(graph)}) for graph in graphs
    ]
    expected_keys: dict[int, str] = {}
    # body -> (cost, plan JSON) of its first 200 reply on this client.
    expected_plans: dict[str, tuple[float, str]] = {}
    tallies = {"ok": 0, "overloaded": 0, "quota": 0, "errors": 0}
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for request_index in range(requests):
            kind = rng.randrange(4)
            if kind == 3:  # malformed traffic must answer structured 4xx
                bad = rng.choice(
                    [b"{not json", b'{"graph": 17}', b'{"sql": ""}']
                )
                connection.request("POST", "/plan", body=bad)
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert "error" in payload and "code" in payload["error"]
                if response.status == 429:
                    # Load shedding may fire before the badness is
                    # discovered; that is a rejection, not an error.
                    code = payload["error"]["code"]
                    key = "overloaded" if code == "overloaded" else "quota"
                    tallies[key] += 1
                else:
                    assert 400 <= response.status < 500, response.status
                    tallies["errors"] += 1
                continue
            if kind == 2:
                path, body = "/plan_sql", json.dumps({"sql": _SQL})
            else:
                graph_index = request_index % len(bodies)
                path, body = "/plan", bodies[graph_index]
            connection.request("POST", path, body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
            if response.status == 429:
                code = payload["error"]["code"]
                assert code in ("overloaded", "quota_exceeded")
                assert response.getheader("Retry-After") is not None
                tallies["overloaded" if code == "overloaded" else "quota"] += 1
                continue
            assert response.status == 200, payload
            assert payload["plan"]["kind"] in ("join", "leaf")
            assert payload["plan_rank"] in (1, 2)
            if kind != 2:
                # The same graph must keep the same canonical identity
                # across every request and thread — the cache is
                # serving correct plans under concurrency iff so.
                seen = expected_keys.setdefault(
                    graph_index, payload["fingerprint_key"]
                )
                assert payload["fingerprint_key"] == seen
            # A repeated body must get the very plan its first reply
            # carried, whether the service relabelled it afresh or
            # served it from the exact-instance table.
            reply = (payload["cost"], json.dumps(payload["plan"], sort_keys=True))
            assert reply == expected_plans.setdefault(body, reply), body
            tallies["ok"] += 1
    finally:
        connection.close()
    return tallies


def run_smoke(
    clients: int = 8,
    requests_per_client: int = 25,
    snapshot_out: str | None = None,
) -> dict:
    """Run the full smoke scenario; returns the final obs snapshot."""
    baseline_threads = set(threading.enumerate())
    service = PlanService(
        algorithm="dpccp", cache_shards=4, k_best=2, workers=4
    )
    server = PlanServer(
        service, ServerConfig(port=0, max_inflight=max(2, clients // 2))
    )
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(
        target=loop.run_forever, name="smoke-loop", daemon=True
    )
    loop_thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        port = server.port
        with ThreadPoolExecutor(max_workers=clients) as pool:
            tallies = list(
                pool.map(
                    lambda index: _client_worker(
                        port, index, requests_per_client
                    ),
                    range(clients),
                )
            )
        totals = {
            key: sum(tally[key] for tally in tallies)
            for key in ("ok", "overloaded", "quota", "errors")
        }
        expected_total = clients * requests_per_client
        assert sum(totals.values()) == expected_total, totals
        assert totals["ok"] > 0, "no request succeeded"
        assert totals["errors"] > 0, "malformed traffic never exercised"
        snapshot = server.snapshot()
        assert (
            snapshot["server"]["admission"]["rejected"] == totals["overloaded"]
        ), (snapshot["server"]["admission"], totals)
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        leaked_tasks = asyncio.run_coroutine_threadsafe(
            _pending_tasks(), loop
        ).result(10)
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join(10)
        loop.close()
        service.close()
    assert leaked_tasks == [], f"leaked asyncio tasks: {leaked_tasks}"
    lingering = [
        thread
        for thread in threading.enumerate()
        if thread not in baseline_threads and thread.is_alive()
    ]
    assert lingering == [], f"leaked threads: {[t.name for t in lingering]}"

    snapshot["smoke"] = {"totals": totals, "clients": clients}
    if snapshot_out is not None:
        with open(snapshot_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, default=str)
    return snapshot


async def _pending_tasks() -> list[str]:
    """Names of tasks still alive on the loop (excluding this one)."""
    current = asyncio.current_task()
    return [
        repr(task)
        for task in asyncio.all_tasks()
        if task is not current and not task.done()
    ]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry for the smoke run."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25)
    parser.add_argument("--snapshot-out", default=None)
    arguments = parser.parse_args(argv)
    snapshot = run_smoke(
        clients=arguments.clients,
        requests_per_client=arguments.requests,
        snapshot_out=arguments.snapshot_out,
    )
    totals = snapshot["smoke"]["totals"]
    print(
        f"smoke OK: {totals['ok']} served, {totals['overloaded']} shed, "
        f"{totals['quota']} quota-limited, "
        f"{totals['errors']} malformed answered; "
        f"cache hit rate {snapshot['cache']['hit_rate']:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``hot_repeat``: the cache-hit path of ``PlanService.plan_request``.

Closed loop, one client. Popularity is Zipf(1.1) over 256 exact-rung
queries; 10% of requests send the query with its relations renumbered.
Every query and its twin is planned once before timing (``warmup_s``),
so timed requests are hits: fingerprint, cache lookup, relabel. One
client because the hit path holds the interpreter lock: two client
threads on one warmed service made 3.1k-3.4k requests per second,
one thread 5.0k-5.6k.
"""

from __future__ import annotations

import math
import random
import time

from repro.errors import ReproError
from repro.plans.visitors import validate_plan
from repro.service.optimizer_service import PlanRequest, PlanService

from replaybench import inputs
from replaybench.common import Tally, digest, instance_key

SHAPES = (("chain", 6, 20), ("cycle", 6, 20), ("star", 6, 12), ("tree", 6, 12), ("clique", 6, 11))
TWIN_SHARE = 0.1
#: Requests built per second of run; the loop cycles through them.
REQUESTS_PER_SECOND = 3000


class Inputs:
    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        rng = random.Random(f"hot_repeat/{seed}")
        count = 32 if smoke else 256
        self.queries = [inputs.light_query(shape, n, rng) for shape, n in inputs.ranked_templates(SHAPES, count)]
        self.twins = [inputs.renumbered(graph, catalog, rng) for graph, catalog in self.queries]
        draws = inputs.zipf_draws(rng, count, max(1000, int(seconds * REQUESTS_PER_SECOND)))
        self.keys = [(rank, rng.random() < TWIN_SHARE) for rank in draws]
        self.requests = [
            PlanRequest(*(self.twins[rank] if twin else self.queries[rank])) for rank, twin in self.keys
        ]

    def digest(self) -> str:
        instances = [instance_key(*q) for q in self.queries] + [instance_key(*t) for t in self.twins]
        return digest(instances + self.keys)


def first_request(seed: int) -> PlanRequest:
    """The most popular query: what the set-up probe plans."""
    rng = random.Random(f"hot_repeat/{seed}")
    shape, n = inputs.ranked_templates(SHAPES, 1)[0]
    return PlanRequest(*inputs.light_query(shape, n, rng))


def make_service() -> PlanService:
    return PlanService()


def _check(tally: Tally, request_id: int, request: PlanRequest, response, expected: float | None) -> None:
    try:
        validate_plan(response.plan, request.graph)
    except ReproError as error:
        tally.fail(request_id, f"invalid plan: {type(error).__name__}: {error}")
        return
    cost = response.cost
    if not math.isfinite(cost):
        tally.fail(request_id, f"non-finite cost {cost}")
    elif expected is not None and not math.isclose(cost, expected, rel_tol=1e-9):
        tally.fail(request_id, f"hit cost {cost!r} differs from warm-up cost {expected!r}")


def warm(service: PlanService, data: Inputs, tally: Tally) -> dict:
    """Plan every query and its twin once; returns warm-up costs."""
    costs = {}
    for rank, (query, twin) in enumerate(zip(data.queries, data.twins)):
        for is_twin, instance in ((False, query), (True, twin)):
            request = PlanRequest(*instance)
            request_id = tally.attempt()
            try:
                response = service.plan_request(request)
            except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
                tally.fail(request_id, f"warm-up raised {type(error).__name__}: {error}")
                continue
            _check(tally, request_id, request, response, costs.get((rank, False)))
            costs[(rank, is_twin)] = response.cost
    return costs


def replay(service: PlanService, data: Inputs, costs: dict, tally: Tally, seconds: float, start: int = 0):
    """Closed loop for ``seconds``; returns (latencies, next index, hits)."""
    latencies = []
    hits = 0
    requests, keys = data.requests, data.keys
    index = start
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        position = index % len(requests)
        request = requests[position]
        index += 1
        request_id = tally.attempt()
        started = time.perf_counter()
        try:
            response = service.plan_request(request)
        except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
            tally.fail(request_id, f"raised {type(error).__name__}: {error}")
            continue
        latencies.append(time.perf_counter() - started)
        hits += response.cache_hit
        _check(tally, request_id, request, response, costs.get(keys[position]))
    return latencies, index, hits

"""``cold_ladder``: every request is new, so every request enumerates.

Closed loop, one client, whole decks of 50 requests. A deck holds the
same (shape, n) slots for every seed, so every rung of the escalation
ladder gets the same share of work in every run; the seed draws the
statistics and the order. Enumeration is most of the time here and the
cache only writes and evicts: the service runs with a 64-entry cache,
well under a run's ~350 distinct keys.
"""

from __future__ import annotations

import math
import random
import time
from itertools import cycle

from repro.core import make_algorithm
from repro.errors import ReproError
from repro.plans.visitors import validate_plan
from repro.service.optimizer_service import PlanRequest, PlanService

from replaybench import inputs
from replaybench.common import Tally, digest, instance_key

CACHE_CAPACITY = 64

#: (shape, n, statistics) slots of one deck, by the rung they route to.
DPCCP_SLOTS = (
    [("chain", n, "light") for n in range(10, 23, 2)]
    + [("cycle", n, "light") for n in range(10, 23, 2)]
    + [("star", n, "light") for n in (8, 10, 12, 14)]
    + [("tree", n, "light") for n in (8, 10, 12, 14)]
)
DPCONV_SLOTS = [("clique", n, "light") for n in (8, 9, 10, 11, 12, 13, 14, 8, 9, 10, 11, 12)]
LINDP_SLOTS = [
    (shape, n, "fk")
    for shape, n in zip(cycle(("chain", "cycle", "star", "tree")),
                        (24, 29, 35, 40, 46, 51, 57, 62, 68, 73, 78, 84, 89, 95, 100))
]
DECK = DPCCP_SLOTS + DPCONV_SLOTS + LINDP_SLOTS
#: One IDP-routed request per deck, sizes rotating over decks.
IDP_SIZES = (170, 185, 200, 215)
SMOKE_DECK = [("chain", 12, "light"), ("star", 10, "light"), ("clique", 9, "light"), ("chain", 40, "fk")]

#: DPccp on larger cliques takes seconds; those are not re-solved.
RESOLVE_MAX_CLIQUE = 11


def _idp_slot(deck: int) -> tuple[str, int, str]:
    return ("chain" if deck % 2 == 0 else "cycle", IDP_SIZES[deck % len(IDP_SIZES)], "fk")


class Inputs:
    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        rng = random.Random(f"cold_ladder/{seed}")
        # A deck takes ~4 s on a 2-core host; build enough for a faster
        # one, and for the two halves of a traced run.
        n_decks = math.ceil(seconds / (0.02 if smoke else 1.5)) + 2
        self.decks = []
        self.resolve = []
        for deck in range(n_decks):
            slots = list(SMOKE_DECK if smoke else DECK + [_idp_slot(deck)])
            rng.shuffle(slots)
            self.decks.append([
                (slot, (inputs.light_query if slot[2] == "light" else inputs.fk_query)(slot[0], slot[1], rng))
                for slot in slots
            ])
            # One exact-routed request per deck (2% of requests) is
            # re-solved with DPccp after the run.
            eligible = [i for i, (shape, n, stats) in enumerate(slots)
                        if stats == "light" and (shape != "clique" or n <= RESOLVE_MAX_CLIQUE)]
            self.resolve.append(rng.choice(eligible))

    def digest(self) -> str:
        return digest([(slot, instance_key(*instance)) for deck in self.decks for slot, instance in deck])


def first_request(seed: int) -> PlanRequest:
    rng = random.Random(f"cold_ladder/{seed}")
    shape, n, _ = DPCCP_SLOTS[0]
    return PlanRequest(*inputs.light_query(shape, n, rng))


def make_service() -> PlanService:
    return PlanService(cache_capacity=CACHE_CAPACITY)


def replay(service: PlanService, data: Inputs, tally: Tally, seconds: float, first_deck: int = 0):
    """Whole decks until ``seconds`` have passed; returns
    (latencies, next deck, sampled (request, cost) pairs)."""
    latencies = []
    sampled = []
    deck = first_deck
    started_run = time.perf_counter()
    while deck < len(data.decks) and (deck == first_deck or time.perf_counter() - started_run < seconds):
        for position, (slot, instance) in enumerate(data.decks[deck]):
            request = PlanRequest(*instance)
            request_id = tally.attempt()
            started = time.perf_counter()
            try:
                response = service.plan_request(request)
            except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
                tally.fail(request_id, f"{slot} raised {type(error).__name__}: {error}")
                continue
            latencies.append(time.perf_counter() - started)
            try:
                validate_plan(response.plan, request.graph)
            except ReproError as error:
                tally.fail(request_id, f"{slot} invalid plan: {type(error).__name__}: {error}")
                continue
            if not math.isfinite(response.cost):
                tally.fail(request_id, f"{slot} non-finite cost {response.cost}")
            elif position == data.resolve[deck]:
                sampled.append((request_id, slot, request, response.cost))
        deck += 1
    return latencies, deck, sampled


def check_sample(sampled, tally: Tally) -> None:
    """Re-solve the sampled exact-routed requests with DPccp, untimed."""
    dpccp = make_algorithm("dpccp")
    for request_id, slot, request, cost in sampled:
        optimum = dpccp.optimize(request.graph, catalog=request.catalog).cost
        if not math.isclose(cost, optimum, rel_tol=1e-9):
            tally.fail(request_id, f"{slot} cost {cost!r} but DPccp finds {optimum!r}")

"""Fault-injection battery: worker death, retries, breaker, respawn.

Workers are killed for real (SIGKILL from inside via the
:func:`~repro.parallel.worker.crash_worker` poison task, or from the
outside via the PIDs :func:`~repro.parallel.worker.worker_pid`
reports), and the assertions pin the recovery contract: the pool
respawns, lost work re-runs, results stay bit-identical to the
sequential enumerators, and exhausted retries degrade instead of
raising out of the planning path.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.core.dpsize import DPsize
from repro.errors import OptimizerError, PoolBrokenError
from repro.graph.generators import graph_for_topology
from repro.catalog.synthetic import random_catalog
from repro.obs import Instrumentation
from repro.parallel import CircuitBreaker, PlanningPool, RetryPolicy
from repro.parallel.worker import crash_worker, worker_pid


def fast_policy(max_retries=3):
    return RetryPolicy(
        max_retries=max_retries, backoff_seconds=0.01, max_backoff_seconds=0.05
    )


def instance(n, seed, topology="star"):
    rng = random.Random(seed)
    graph = graph_for_topology(topology, n, rng=rng)
    return graph, random_catalog(n, rng)


def poison(pool):
    """Break the pool's live executor by killing one worker from inside."""
    with pytest.raises(Exception):
        pool.submit(crash_worker).result()


def always_poisoned(pool):
    """Patch helper: every (re)spawned executor is immediately killed.

    Simulates a host where workers die faster than they respawn (hard
    memory pressure), which is what exhausts the retry budget.
    """
    original_ensure = pool._ensure_executor

    def ensure_and_poison():
        executor = original_ensure()
        try:
            executor.submit(crash_worker)
            time.sleep(0.2)
        except Exception:
            pass  # already broken: exactly the state we want
        return executor

    return ensure_and_poison


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_retries=5,
            backoff_seconds=0.1,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.3,
            jitter_fraction=0.0,
        )
        rng = random.Random(0)
        delays = [policy.delay_seconds(attempt, rng) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_seconds=1.0, jitter_fraction=0.5)
        rng = random.Random(7)
        for _ in range(200):
            delay = policy.delay_seconds(1, rng)
            assert 0.5 <= delay <= 1.0

    def test_rejects_bad_configuration(self):
        with pytest.raises(OptimizerError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(OptimizerError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(OptimizerError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(OptimizerError):
            RetryPolicy().delay_seconds(0, random.Random(0))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=10.0, clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=10.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.1)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # no second probe while one is in flight
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_transitions_and_rejections_are_counted(self):
        clock = FakeClock()
        obs = Instrumentation()
        breaker = CircuitBreaker(
            threshold=1, cooldown_seconds=5.0, clock=clock, instrumentation=obs
        )
        breaker.record_failure()
        breaker.allow()  # rejected
        clock.advance(5.1)
        breaker.allow()  # half-open probe
        breaker.record_success()
        counters = obs.counters
        assert counters.value("breaker.state.open") == 1
        assert counters.value("breaker.state.half_open") == 1
        assert counters.value("breaker.state.closed") == 1
        assert counters.value("breaker.rejections") == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(OptimizerError):
            CircuitBreaker(threshold=0)
        with pytest.raises(OptimizerError):
            CircuitBreaker(cooldown_seconds=0.0)


class TestPoolFaultRecovery:
    def test_kill_then_run_query_respawns_and_completes(self):
        graph, catalog = instance(7, seed=3)
        reference = DPsize().optimize(graph, catalog=catalog)
        obs = Instrumentation()
        with PlanningPool(
            2, retry_policy=fast_policy(), instrumentation=obs
        ) as pool:
            assert pool.submit(worker_pid).result() > 0
            poison(pool)
            assert not pool.healthy
            outcome = pool.run_query(graph, catalog, "dpsize")
            assert pool.healthy
            assert outcome.result.cost == reference.cost
            assert (
                outcome.result.counters.as_dict() == reference.counters.as_dict()
            )
            assert pool.fault_count >= 1
            assert pool.respawn_count >= 1
        assert obs.counters.value("pool.faults") >= 1
        assert obs.counters.value("pool.respawns") >= 1

    def test_run_query_killed_mid_flight_retries(self):
        graph, catalog = instance(8, seed=5, topology="clique")
        reference = DPsize().optimize(graph, catalog=catalog)
        with PlanningPool(2, retry_policy=fast_policy()) as pool:
            pids = {pool.submit(worker_pid, token).result() for token in range(8)}
            done = threading.Event()
            outcomes = []

            def run():
                outcomes.append(pool.run_query(graph, catalog, "dpsize"))
                done.set()

            thread = threading.Thread(target=run)
            thread.start()
            os.kill(next(iter(pids)), signal.SIGKILL)
            assert done.wait(timeout=60.0), "run_query never completed"
            thread.join()
            assert outcomes[0].result.cost == reference.cost

    def test_retries_exhausted_raises_pool_broken(self):
        with PlanningPool(
            2, retry_policy=RetryPolicy(max_retries=0, backoff_seconds=0.0)
        ) as pool:
            poison(pool)
            # Every respawned attempt is poisoned again before use, so
            # the zero-retry budget is exhausted on the first fault.
            graph, catalog = instance(5, seed=1)
            pool._ensure_executor = always_poisoned(pool)
            with pytest.raises(PoolBrokenError):
                pool.run_query(graph, catalog, "dpsize")

    def test_deadline_caps_retry_budget(self):
        obs = Instrumentation()
        with PlanningPool(
            2,
            retry_policy=RetryPolicy(max_retries=10, backoff_seconds=0.05),
            instrumentation=obs,
        ) as pool:
            graph, catalog = instance(5, seed=1)
            pool._ensure_executor = always_poisoned(pool)
            started = time.monotonic()
            with pytest.raises(PoolBrokenError):
                pool.run_query(
                    graph, catalog, "dpsize", deadline_at=time.monotonic() + 0.5
                )
            # Bounded by the deadline, not by the 10-retry budget (each
            # poisoned attempt alone takes ~0.2s to settle).
            assert time.monotonic() - started < 10.0
            assert obs.counters.value("retry.deadline_exhausted") >= 1


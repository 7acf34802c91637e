"""Timing wrappers around the program's public functions, and the
per-layer metrics computed from the spans they record.

The program has no spans of its own on these paths, so a traced run
swaps a fixed list of module attributes for wrappers that time each
call from outside (:func:`installed`) and restores them afterwards.
Each span records its name, start, end, parent, thread and request id;
spans stay in memory and are written out when the run ends.

A span opened on a thread where no span is open is a root. Roots named
in :data:`REQUEST_SPANS` start a new request id. Any other root (an
enumeration on a worker thread, a cache fill in a done-callback) is
assigned to the single request span on another thread whose interval
contains it; with more than one candidate it stays unassigned.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path

from replaybench.common import median, quantile

REQUEST_SPANS = ("service.plan_request", "pipeline.request")

#: Result ``algorithm`` names of the ladder's enumerators, as the
#: per-layer metric keys spell them.
ALGORITHM_KEYS = {"DPccp": "dpccp", "DPconv": "dpconv", "LinDP": "lindp", "IDP-1": "idp", "GOO": "goo"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "request", "attrs", "children")

    def __init__(self, id, name, start, parent, thread, request):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.request = request
        self.attrs = None
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._local = threading.local()

    def start(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if parent is not None:
            request = parent.request
        elif name in REQUEST_SPANS:
            request = next(self._requests)
        else:
            request = None
        span = Span(next(self._ids), name, time.perf_counter(), parent, threading.get_ident(), request)
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span, attrs: dict | None = None) -> None:
        span.end = time.perf_counter()
        span.attrs = attrs
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured by the caller."""
        span = Span(next(self._ids), name, start, None, threading.get_ident(), None)
        span.end = end
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.start(name)
        try:
            yield span
        finally:
            self.finish(span, span.attrs)

    def dump(self, path: Path) -> None:
        """Write every span as ``[id, name, start, end, parent, thread, request, attrs]``."""
        rows = [
            [s.id, s.name, s.start, s.end, s.parent.id if s.parent else None, s.thread, s.request, s.attrs]
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))


def load_spans(path: Path) -> list[Span]:
    """Rebuild the spans :meth:`Tracer.dump` wrote (parents relinked)."""
    rows = json.loads(Path(path).read_text())["spans"]
    by_id = {}
    spans = []
    for id, name, start, end, parent, thread, request, attrs in rows:
        span = Span(id, name, start, parent, thread, request)
        span.end = end
        span.attrs = attrs
        by_id[id] = span
        spans.append(span)
    for span in spans:
        span.parent = by_id.get(span.parent)
    return spans


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, function):
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.finish(span)

    return wrapper


def _timed_lookup(tracer: Tracer, function):
    def get_or_join(cache, key):
        span = tracer.start("cache.get_or_join")
        attrs = None
        try:
            status, payload = function(cache, key)
            attrs = {"status": status}
            return status, payload
        finally:
            tracer.finish(span, attrs)

    return get_or_join


class _TracedAlgorithm:
    """An optimizer whose ``optimize`` is timed, with the paper's counters."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def optimize(self, *args, **kwargs):
        span = self._tracer.start("optimize")
        attrs = None
        try:
            result = self._inner.optimize(*args, **kwargs)
            attrs = {
                "algorithm": result.algorithm.split("->")[-1],
                "inner": result.counters.inner_counter,
                "ccp": result.counters.ono_lohman_counter,
            }
            return result
        finally:
            self._tracer.finish(span, attrs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _traced_factory(tracer: Tracer, factory):
    def make_algorithm(*args, **kwargs):
        return _TracedAlgorithm(factory(*args, **kwargs), tracer)

    return make_algorithm


class _ArrivalReader:
    """Stream-reader proxy that notes when a request head arrived, so
    the read span excludes the idle wait of a keep-alive connection."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived: float | None = None

    async def readuntil(self, separator):
        data = await self._reader.readuntil(separator)
        self.arrived = time.perf_counter()
        return data

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


def _timed_read(tracer: Tracer, function):
    async def read_request(reader):
        proxy = _ArrivalReader(reader)
        request = await function(proxy)
        if proxy.arrived is not None:
            tracer.record("server.read", proxy.arrived, time.perf_counter())
        return request

    return read_request


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced names for wrappers; restore them on exit."""
    import repro.pipeline
    import repro.pipeline.pipeline as pipeline
    import repro.server.app as app
    import repro.service.optimizer_service as service
    from repro.service.sharding import ShardedPlanCache

    patches = [
        (service, "compute_fingerprint", _timed(tracer, "fingerprint", service.compute_fingerprint)),
        (service, "relabel_plan", _timed(tracer, "relabel", service.relabel_plan)),
        (service, "make_algorithm", _traced_factory(tracer, service.make_algorithm)),
        (service.PlanService, "plan_request",
         _timed(tracer, "service.plan_request", service.PlanService.plan_request)),
        (ShardedPlanCache, "get_or_join", _timed_lookup(tracer, ShardedPlanCache.get_or_join)),
        (ShardedPlanCache, "fulfill", _timed(tracer, "cache.fulfill", ShardedPlanCache.fulfill)),
        (pipeline, "prepare_query", _timed(tracer, "pipeline.prepare", pipeline.prepare_query)),
        (repro.pipeline, "prepare_query", _timed(tracer, "pipeline.prepare", repro.pipeline.prepare_query)),
        (pipeline, "select_operators", _timed(tracer, "pipeline.select", pipeline.select_operators)),
        (pipeline, "execute_plan", _timed(tracer, "exec.execute", pipeline.execute_plan)),
        (pipeline, "make_algorithm", _traced_factory(tracer, pipeline.make_algorithm)),
        (app, "read_request", _timed_read(tracer, app.read_request)),
        (app, "parse_plan_payload", _timed(tracer, "server.parse", app.parse_plan_payload)),
        (app, "plan_to_dict", _timed(tracer, "server.plan_to_dict", app.plan_to_dict)),
        (app, "render_response", _timed(tracer, "server.render", app.render_response)),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def link(spans: list[Span]) -> None:
    """Assign orphan roots to their containing request; fill children."""
    requests = sorted((s for s in spans if s.parent is None and s.name in REQUEST_SPANS),
                      key=lambda s: s.start)
    starts = [s.start for s in requests]
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent is not None or span.name in REQUEST_SPANS:
            continue
        position = bisect_right(starts, span.start)
        candidates = [
            request
            for request in requests[max(0, position - 8):position]
            if request.thread != span.thread and request.end >= span.end
        ]
        if len(candidates) == 1:
            span.parent = candidates[0]
            span.request = candidates[0].request
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)


def self_time(span: Span) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics measurable from spans alone (see README)."""
    link(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    requests = by_name.get("service.plan_request", [])
    fingerprints = durations("fingerprint")
    lookups = by_name.get("cache.get_or_join", [])
    statuses = [s.attrs["status"] for s in lookups if s.attrs]
    request_time = sum(s.duration for s in requests)
    metrics = {
        "fingerprint.us_p50": median(fingerprints) * 1e6,
        "fingerprint.us_p90": quantile(fingerprints, 0.9) * 1e6,
        "fingerprint.share": sum(fingerprints) / request_time if request_time else 0.0,
        "plancache.lookup_us_p50": median([s.duration for s in lookups]) * 1e6,
        "plancache.hit_rate": statuses.count("hit") / len(statuses) if statuses else 0.0,
        "plancache.coalesced": float(statuses.count("follower")),
        "relabel.us_p50": median(durations("relabel")) * 1e6,
        "service.wait_ms_p50": median([self_time(s) for s in requests]) * 1e3,
        "pipeline.prepare_ms_p50": median(durations("pipeline.prepare")) * 1e3,
        "pipeline.select_us_p50": median(durations("pipeline.select")) * 1e6,
        "exec.execute_ms_p50": median(durations("exec.execute")) * 1e3,
        "server.read_us_p50": median(durations("server.read")) * 1e6,
    }

    optimizations = [s for s in by_name.get("optimize", ()) if s.attrs]
    for algorithm, key in ALGORITHM_KEYS.items():
        runs = [s for s in optimizations if s.attrs["algorithm"] == algorithm]
        inner = sum(s.attrs["inner"] for s in runs)
        busy = sum(s.duration for s in runs)
        metrics[f"core.{key}.calls"] = float(len(runs))
        metrics[f"core.{key}.ms_p50"] = median([s.duration for s in runs]) * 1e3
        metrics[f"core.{key}.inner_counter"] = float(inner)
        metrics[f"core.{key}.ccp"] = float(sum(s.attrs["ccp"] for s in runs))
        metrics[f"core.{key}.ns_per_inner"] = busy * 1e9 / inner if inner else 0.0
    # A ladder rung runs on the request's own thread, inside its span;
    # routed enumerations run on worker threads.
    degrades = [s for s in optimizations
                if s.parent is not None and s.parent.name == "service.plan_request"
                and s.parent.thread == s.thread]
    metrics["degrade.ms_p50"] = median([s.duration for s in degrades]) * 1e3

    # plan_to_dict and render_response of one reply run back to back on
    # the event-loop thread with no await between them.
    serialize = []
    loop_spans = sorted(by_name.get("server.plan_to_dict", []) + by_name.get("server.render", []),
                        key=lambda s: s.start)
    for first, second in zip(loop_spans, loop_spans[1:]):
        if first.name == "server.plan_to_dict" and second.name == "server.render":
            serialize.append(first.duration + second.duration)
    metrics["server.serialize_us_p50"] = median(serialize) * 1e6
    return metrics

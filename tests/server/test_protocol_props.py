"""Fuzzing the wire protocol (hypothesis).

``read_request`` reads whatever bytes a client sends, and
``parse_plan_payload`` whatever JSON object it decoded. Each must
answer with a parse or a :class:`ProtocolError` carrying a 4xx status,
which the connection handler turns into a structured error; any other
exception would surface as a 500.
"""

from __future__ import annotations

import asyncio
import json
import math

from hypothesis import example, given, settings, strategies as st

from repro.server.protocol import (
    HttpRequest,
    ProtocolError,
    parse_plan_payload,
    read_request,
)

METHODS = st.sampled_from(["GET", "POST", "PUT", "get", ""])
HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Connection", "Host", "X-Tenant"]
)


def _outcome(data: bytes) -> HttpRequest | ProtocolError | None:
    """What ``read_request`` makes of ``data`` followed by EOF."""

    async def go() -> HttpRequest | None:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    try:
        return asyncio.run(go())
    except ProtocolError as error:
        return error


def _assert_parsed_or_4xx(outcome: object) -> None:
    if isinstance(outcome, ProtocolError):
        assert 400 <= outcome.status < 500, outcome.status
    else:
        assert outcome is None or isinstance(outcome, HttpRequest)


@st.composite
def framed_requests(draw) -> bytes:
    """A request line and ``\\r\\n\\r\\n``-terminated head whose header
    values, and the body after it, are random bytes."""
    line = b"%s /plan HTTP/1.1\r\n" % draw(METHODS).encode()
    headers = b"".join(
        name.encode() + b": " + value.replace(b"\r\n", b"") + b"\r\n"
        for name, value in draw(
            st.lists(
                st.tuples(
                    HEADER_NAMES,
                    st.one_of(
                        st.binary(max_size=12),
                        st.integers(-5, 10**6).map(lambda v: str(v).encode()),
                    ),
                ),
                max_size=4,
            )
        )
    )
    return line + headers + b"\r\n" + draw(st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
@example(b"")
@example(b"\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
def test_random_bytes_parse_or_answer_4xx(data: bytes) -> None:
    _assert_parsed_or_4xx(_outcome(data))


@settings(max_examples=300, deadline=None)
@given(framed_requests())
@example(b"POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
@example(b"POST /plan HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
def test_framed_heads_parse_or_answer_4xx(data: bytes) -> None:
    _assert_parsed_or_4xx(_outcome(data))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

PAYLOADS = st.dictionaries(
    st.sampled_from(["algorithm", "deadline_seconds", "tenant", "graph"]),
    JSON_VALUES,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
@example(json.loads('{"deadline_seconds": NaN}'))
@example(json.loads('{"deadline_seconds": Infinity}'))
@example(json.loads('{"deadline_seconds": -Infinity}'))
@example(json.loads('{"deadline_seconds": 1e400}'))
@example(json.loads('{"deadline_seconds": 1%s}' % ("0" * 400)))
def test_plan_payload_gives_finite_deadline_or_400(payload: dict) -> None:
    try:
        parsed = parse_plan_payload(payload)
    except ProtocolError as error:
        assert error.status == 400
        return
    deadline = parsed["deadline_seconds"]
    assert deadline is None or (math.isfinite(deadline) and deadline >= 0)

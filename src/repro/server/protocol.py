"""Wire protocol of the plan server: minimal HTTP/1.1 plus JSON bodies.

The server speaks just enough HTTP for stdlib clients
(:mod:`http.client`, ``urllib.request``) and load generators: request
line, headers, ``Content-Length``-framed bodies, keep-alive. There is
deliberately no chunked encoding, no TLS and no HTTP/2 — this is an
in-datacenter front door for a planning service, not a web server.

Endpoints (see :mod:`repro.server.app` for the handlers):

* ``POST /plan`` — body ``{"graph": ..., "catalog": ...?, ...}`` with
  the :func:`repro.io.graph_to_dict` / ``catalog_to_dict`` layouts,
  plus optional ``algorithm``, ``deadline_seconds`` and ``tenant``.
* ``POST /plan_sql`` — body ``{"sql": "...", "estimator": ...?,
  "tables": ...?}`` plus the same optional planning fields.
* ``GET /healthz`` — liveness.
* ``GET /snapshot`` — the service's full obs snapshot.

Every response body is JSON. Errors are structured::

    {"error": {"code": "overloaded", "message": "...", "retry_after": 0.05}}

so clients can branch on ``code`` without parsing prose.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field

from repro.errors import ServiceError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "HttpRequest",
    "ProtocolError",
    "error_body",
    "parse_plan_payload",
    "read_request",
    "render_response",
]

#: Request bodies past this size are rejected with 413 before parsing;
#: a 10k-relation graph JSON is ~1 MiB, so 8 MiB leaves headroom
#: without letting one client balloon the server's memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Bound on the request line + headers block, against slow-drip abuse.
MAX_HEADER_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ServiceError):
    """A request violated the wire protocol (malformed HTTP or JSON).

    Carries the HTTP status and machine-readable error code the
    connection handler should answer with.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass(slots=True)
class HttpRequest:
    """One parsed HTTP request.

    Attributes:
        method: upper-case HTTP method.
        path: request path without query string.
        headers: header map, keys lower-cased.
        body: raw body bytes (empty when no ``Content-Length``).
        keep_alive: whether the connection should stay open after the
            response (HTTP/1.1 default unless ``Connection: close``).
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    def json(self) -> dict:
        """The body parsed as a JSON object.

        Raises:
            ProtocolError: the body is not a JSON object (400).
        """
        try:
            payload = json.loads(self.body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ProtocolError(
                400, "bad_json", f"request body is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ProtocolError(
                400, "bad_json", "request body must be a JSON object"
            )
        return payload


async def read_request(reader) -> HttpRequest | None:
    """Read one HTTP request off ``reader``.

    Returns ``None`` on a clean EOF before any byte of a new request
    (the client closed a keep-alive connection), otherwise a parsed
    :class:`HttpRequest`.

    Raises:
        ProtocolError: malformed framing, oversized headers/body.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            400, "bad_request", "connection closed mid-request"
        ) from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError(
            413, "headers_too_large", "request headers exceed the limit"
        ) from error
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(
            413, "headers_too_large", "request headers exceed the limit"
        )
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError as error:
        raise ProtocolError(
            400, "bad_request", "malformed HTTP request line"
        ) from error
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(
                400, "bad_request", f"malformed header line {line!r}"
            )
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as error:
            raise ProtocolError(
                400, "bad_request", "Content-Length is not an integer"
            ) from error
        if length < 0:
            raise ProtocolError(
                400, "bad_request", "Content-Length is negative"
            )
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                413, "body_too_large",
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise ProtocolError(
                    400, "bad_request", "connection closed mid-body"
                ) from error

    connection = headers.get("connection", "").lower()
    return HttpRequest(
        method=method.upper(),
        path=target.split("?", 1)[0],
        headers=headers,
        body=body,
        keep_alive=connection != "close",
    )


def render_response(
    status: int,
    payload: dict,
    *,
    keep_alive: bool = True,
    retry_after: float | None = None,
) -> bytes:
    """Serialize a JSON response with correct framing headers."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after is not None:
        # Retry-After is specified in (fractional not allowed) seconds;
        # round up so "retry in 50 ms" never becomes "retry now".
        lines.append(f"Retry-After: {max(1, int(-(-retry_after // 1)))}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def error_body(
    code: str, message: str, retry_after: float | None = None
) -> dict:
    """The structured error payload every non-200 response carries."""
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"error": error}


def parse_plan_payload(payload: dict) -> dict:
    """Validate/extract the planning fields shared by both POST routes.

    Returns a kwargs dict with ``algorithm``, ``deadline_seconds`` and
    ``tenant`` (tenant separately consumed by the quota layer).

    Raises:
        ProtocolError: a field has the wrong type, or the deadline is
            negative or not finite (400). Python's JSON reader accepts
            ``NaN``, ``Infinity`` and numbers past the float range.
    """
    algorithm = payload.get("algorithm")
    if algorithm is not None and not isinstance(algorithm, str):
        raise ProtocolError(400, "bad_field", "algorithm must be a string")
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ProtocolError(
                400, "bad_field", "deadline_seconds must be a number"
            )
        try:
            deadline = float(deadline)
        except OverflowError:  # an integer past the float range
            deadline = math.inf
        if not math.isfinite(deadline):
            raise ProtocolError(
                400, "bad_field", "deadline_seconds must be finite"
            )
        if deadline < 0:
            raise ProtocolError(
                400, "bad_field", "deadline_seconds must be >= 0"
            )
    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError(400, "bad_field", "tenant must be a string")
    return {
        "algorithm": algorithm,
        "deadline_seconds": deadline,
        "tenant": tenant,
    }

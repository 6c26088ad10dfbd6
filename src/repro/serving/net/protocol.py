"""Hand-rolled HTTP/1.1 framing + JSON wire codecs for the serving tier.

Stdlib only, by design: the serving stack must be deployable without a
single third-party dependency, so the network tier speaks HTTP/1.1
directly over ``asyncio`` streams — request-line/header parsing with
``Content-Length`` bodies on the way in, fixed-length or chunked
(``Transfer-Encoding: chunked``) bodies on the way out.  The subset is
deliberately small (no multipart, no compression, no pipelining beyond
keep-alive) but it is *real* HTTP: ``curl`` works against the server and
the loopback tests drive the same bytes a remote client would.

The JSON codecs translate the serving layer's frozen dataclasses to and
from plain dicts:

* arrivals — ``{"time", "key", "value", "source"}`` →
  :class:`~repro.data.stream.StreamEvent` (value codes validated against
  the cluster's :class:`~repro.data.items.ValueSpec` *before* admission,
  so a malformed request 400s instead of poisoning a drain round),
* decisions — :class:`~repro.serving.cluster.StreamDecision` →
  ``{"stream_id", "shard_id", "key", "predicted", ...}``,
* submit outcomes — :class:`~repro.serving.results.SubmitResult` →
  ``{"status", "queue_depth", "decisions": [...]}`` plus the HTTP status
  mapping :data:`STATUS_TO_HTTP` (accepted → 202, degraded → 503).  The
  server answers a submission with the async gateway's admission outcome,
  which carries no decisions, so its ``decisions`` list is always empty:
  decisions travel on the ``GET /v1/decisions`` push stream.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping, NoReturn, Optional, Tuple

from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving.cluster import StreamDecision
from repro.serving.results import SubmitResult

__all__ = [
    "CRLF",
    "MAX_LINE_BYTES",
    "MAX_BODY_BYTES",
    "STATUS_TO_HTTP",
    "REASONS",
    "WireFormatError",
    "HTTPRequest",
    "HTTPResponse",
    "read_request",
    "read_response",
    "read_stream_head",
    "read_chunk",
    "render_request",
    "render_response",
    "render_chunk",
    "render_last_chunk",
    "json_response",
    "error_body",
    "event_to_wire",
    "event_from_wire",
    "decision_to_wire",
    "submit_result_to_wire",
]

CRLF = b"\r\n"
#: Bound on any single request/status/header line (DoS hygiene).
MAX_LINE_BYTES = 8192
#: Bound on a request body; one event is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Admission status → HTTP response code.  ``degraded`` maps to 503: the
#: shard's breaker is open, so the node cannot serve that stream right now,
#: and the retry horizon is the breaker's, not the client's (no
#: ``Retry-After``).  A full shard queue never reaches the client: the
#: gateway serves a round of that shard and then admits.  ``decided`` is
#: only ever the synchronous ``ServingCluster.submit``'s outcome; the server
#: never sees it (the gateway admits without serving), and the entry keeps
#: the mapping total over ``SUBMIT_STATUSES``.
STATUS_TO_HTTP: Mapping[str, int] = {
    "decided": 200,
    "accepted": 202,
    "degraded": 503,
}

REASONS: Mapping[int, str] = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class WireFormatError(ValueError):
    """A request that does not decode to a valid serving-layer payload."""


def _reject_constant(name: str) -> NoReturn:
    raise WireFormatError(f"request body contains the non-finite number {name}")


#: Request-body decoder.  ``json.loads`` accepts ``NaN``/``Infinity`` by
#: default; one prebuilt decoder rejects them without building a new
#: decoder per request.
_REQUEST_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@dataclass
class HTTPRequest:
    """One parsed request: method, split path, lowercase headers, raw body."""

    method: str
    target: str
    headers: Dict[str, str]
    body: bytes

    @property
    def path_parts(self) -> Tuple[str, ...]:
        path = self.target.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def json(self) -> object:
        """The body decoded as JSON; :class:`WireFormatError` on garbage."""
        if not self.body:
            return None
        try:
            return _REQUEST_DECODER.decode(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(f"request body is not valid JSON: {error}")


@dataclass
class HTTPResponse:
    """One parsed response (client side): status, headers, full body."""

    status: int
    reason: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> object:
        if not self.body:
            return None
        return json.loads(self.body.decode("utf-8"))


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF-terminated line, bounded; ``b\"\"`` at a clean EOF."""
    try:
        line = await reader.readuntil(CRLF)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""
        raise WireFormatError("connection closed mid-line")
    except asyncio.LimitOverrunError:
        raise WireFormatError("header line exceeds the size bound")
    if len(line) > MAX_LINE_BYTES:
        raise WireFormatError("header line exceeds the size bound")
    return line[:-2]


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            return headers
        if len(headers) > 100:
            raise WireFormatError("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise WireFormatError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Optional[HTTPRequest]:
    """Parse one request off the stream; ``None`` at a clean EOF.

    Raises :class:`WireFormatError` for anything malformed — the server
    turns that into a 400 and closes the connection (framing is no longer
    trustworthy after a parse error).
    """
    start = await _read_line(reader)
    if not start:
        return None
    parts = start.decode("latin-1").split()
    if len(parts) != 3:
        raise WireFormatError(f"malformed request line: {start!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise WireFormatError(f"unsupported protocol version: {version!r}")
    headers = await _read_headers(reader)
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise WireFormatError(f"bad Content-Length: {length_header!r}")
        if length < 0 or length > max_body:
            raise WireFormatError(f"Content-Length {length} out of bounds")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise WireFormatError("connection closed mid-body")
    elif headers.get("transfer-encoding"):
        raise WireFormatError("chunked request bodies are not supported")
    return HTTPRequest(
        method=method.upper(), target=target, headers=headers, body=body
    )


async def read_response(reader: asyncio.StreamReader) -> HTTPResponse:
    """Parse one fixed-length response (client side).

    Chunked responses (the decision stream) are read incrementally with
    :func:`read_chunk` instead; this helper rejects them.
    """
    status_line = await _read_line(reader)
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2:
        raise WireFormatError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    reason = parts[2] if len(parts) > 2 else ""
    headers = await _read_headers(reader)
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise WireFormatError("unexpected chunked response")
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return HTTPResponse(status=status, reason=reason, headers=headers, body=body)


async def read_stream_head(reader: asyncio.StreamReader) -> HTTPResponse:
    """Status line + headers of a chunked response, body left unread."""
    status_line = await _read_line(reader)
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2:
        raise WireFormatError(f"malformed status line: {status_line!r}")
    headers = await _read_headers(reader)
    return HTTPResponse(
        status=int(parts[1]),
        reason=parts[2] if len(parts) > 2 else "",
        headers=headers,
        body=b"",
    )


async def read_chunk(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One chunk of a chunked body; ``None`` at the terminal chunk."""
    size_line = await _read_line(reader)
    if not size_line:
        raise ConnectionError("server closed the connection mid-stream")
    try:
        size = int(size_line.split(b";", 1)[0], 16)
    except ValueError:
        raise WireFormatError(f"malformed chunk size: {size_line!r}")
    if size == 0:
        await _read_line(reader)  # trailing CRLF after the terminal chunk
        return None
    chunk = await reader.readexactly(size)
    await reader.readexactly(2)  # chunk's trailing CRLF
    return chunk


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #
def render_request(
    method: str,
    target: str,
    host: str,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if body or method in ("POST", "PUT"):
        lines.append(f"Content-Length: {len(body)}")
        lines.append("Content-Type: application/json")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def render_response(
    status: int,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
    *,
    chunked: bool = False,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", "Content-Type: application/json"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head if chunked else head + body


def render_chunk(payload: bytes) -> bytes:
    return f"{len(payload):x}".encode("latin-1") + CRLF + payload + CRLF


def render_last_chunk() -> bytes:
    return b"0" + CRLF + CRLF


def json_response(
    status: int, payload: object, headers: Optional[Mapping[str, str]] = None
) -> bytes:
    return render_response(
        status, json.dumps(payload).encode("utf-8"), headers
    )


def error_body(message: str) -> Dict[str, str]:
    return {"error": message}


# ---------------------------------------------------------------------- #
# JSON codecs for the serving dataclasses
# ---------------------------------------------------------------------- #
def event_to_wire(event: StreamEvent) -> Dict[str, object]:
    """``StreamEvent`` → plain JSON dict (stream id travels in the URL)."""
    return {
        "time": event.time,
        "key": event.item.key,
        "value": list(event.item.value),
        "source": event.source,
    }


def event_from_wire(
    payload: object, spec: ValueSpec, stream_id: str
) -> StreamEvent:
    """Decode + validate one arrival; :class:`WireFormatError` on anything off.

    Validation is strict and happens *before* admission: JSON-able but
    out-of-range value codes would otherwise detonate inside a drain round
    (an embedding lookup) and trip the shard's breaker — a malformed
    request must never cost availability.
    """
    if not isinstance(payload, dict):
        raise WireFormatError("event payload must be a JSON object")
    unknown = set(payload) - {"time", "key", "value", "source"}
    if unknown:
        raise WireFormatError(f"unknown event fields: {sorted(unknown)}")
    try:
        key = payload["key"]
        value = payload["value"]
    except KeyError as error:
        raise WireFormatError(f"event payload missing field {error}")
    if not isinstance(key, (str, int)) or isinstance(key, bool):
        raise WireFormatError("event key must be a string or integer")
    if not isinstance(value, list) or not all(
        isinstance(code, int) and not isinstance(code, bool) for code in value
    ):
        raise WireFormatError("event value must be a list of integer codes")
    time_value = payload.get("time", 0.0)
    if not isinstance(time_value, (int, float)) or isinstance(time_value, bool):
        raise WireFormatError("event time must be a number")
    try:
        time_value = float(time_value)
    except OverflowError:
        raise WireFormatError("event time is out of range")
    # A body decoded elsewhere may carry NaN/Infinity, and a literal such as
    # 1e400 decodes to inf: either would reach the window and make every
    # later arrival of the stream fail its round as out of order.
    if not math.isfinite(time_value):
        raise WireFormatError("event time must be finite")
    try:
        spec.validate_value(value)
    except ValueError as error:
        raise WireFormatError(str(error))
    item = Item(key=key, value=tuple(value), time=time_value)
    source = payload.get("source", stream_id)
    if not isinstance(source, str):
        raise WireFormatError("event source must be a string")
    return StreamEvent(time=time_value, item=item, source=source)


def decision_to_wire(stream_decision: StreamDecision) -> Dict[str, object]:
    """``StreamDecision`` → flat JSON dict (one NDJSON line on the wire)."""
    decision = stream_decision.decision
    return {
        "stream_id": stream_decision.stream_id,
        "shard_id": stream_decision.shard_id,
        "key": decision.key,
        "predicted": decision.predicted,
        "confidence": decision.confidence,
        "observations": decision.observations,
        "decision_time": decision.decision_time,
        "halted_by_policy": decision.halted_by_policy,
        "window_truncated": decision.window_truncated,
    }


def submit_result_to_wire(result: SubmitResult) -> Dict[str, object]:
    """``SubmitResult`` → response body (decisions inlined, if it has any)."""
    return {
        "status": result.status,
        "stream_id": result.stream_id,
        "shard_id": result.shard_id,
        "queue_depth": result.queue_depth,
        "decisions": [decision_to_wire(sd) for sd in result.decisions],
    }

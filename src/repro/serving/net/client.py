"""A wire-speaking asyncio client for :class:`ServingHTTPServer`.

Stdlib only, like the server: requests are rendered and parsed by the same
:mod:`~repro.serving.net.protocol` helpers, over a persistent keep-alive
``asyncio.open_connection`` socket (one socket per client for the
request/response verbs, plus one dedicated socket per
:meth:`ServingHTTPClient.decisions` stream — chunked responses never
return to request/response framing).

The client exists so the loopback tests and examples exercise the *real*
protocol — every byte crosses a socket; nothing shortcuts into the
gateway — while still reading like the in-process API:

>>> async with ServingHTTPClient(host, port) as client:
...     result = await client.submit("alpha", key="k1", value=[3, 1], time=0.1)
...     result.status, result.http_status        # ("accepted", 202)
...     async for decision in client.decisions():
...         ...
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

from repro.data.stream import StreamEvent
from repro.serving.net import protocol
from repro.serving.net.protocol import HTTPResponse, event_to_wire

__all__ = [
    "NetDecision",
    "NetSubmitResult",
    "ServingHTTPClient",
    "ServingUnavailableError",
]


class ServingUnavailableError(RuntimeError):
    """The server refused an operation for lifecycle reasons (503 + error).

    Distinct from the admission statuses: a degraded submit still returns
    a :class:`NetSubmitResult` (the request was *served*); this exception
    means the server/gateway is draining or closed.
    """

    def __init__(self, http_status: int, message: str) -> None:
        super().__init__(message)
        self.http_status = http_status


@dataclass(frozen=True)
class NetDecision:
    """One decision as it crossed the wire (mirrors ``StreamDecision``)."""

    stream_id: Union[str, int]
    shard_id: int
    key: Union[str, int]
    predicted: int
    confidence: float
    observations: int
    decision_time: float
    halted_by_policy: bool
    window_truncated: bool

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "NetDecision":
        return cls(**payload)


@dataclass(frozen=True)
class NetSubmitResult:
    """One submit outcome as it crossed the wire (plus the HTTP status)."""

    status: str
    http_status: int
    stream_id: Union[str, int]
    shard_id: int
    queue_depth: int
    decisions: Tuple[NetDecision, ...]

    @property
    def admitted(self) -> bool:
        return self.status in ("accepted", "decided")


class ServingHTTPClient:
    """Thin asyncio client over one keep-alive connection.

    Concurrent callers are serialized on the connection (HTTP/1.1
    request/response framing is strictly ordered); decision streams open
    their own dedicated connections and do not contend.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServingHTTPClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self, method: str, target: str, payload: Optional[object] = None
    ) -> HTTPResponse:
        """One request/response over the persistent connection.

        Reconnects once if the keep-alive socket was torn down between
        calls (server restart, idle timeout on a middlebox).
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        raw = protocol.render_request(
            method, target, f"{self.host}:{self.port}", body
        )
        async with self._lock:
            if self._writer is None:
                await self._connect()
            try:
                self._writer.write(raw)
                await self._writer.drain()
                return await protocol.read_response(self._reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                await self._connect()
                self._writer.write(raw)
                await self._writer.drain()
                return await protocol.read_response(self._reader)

    async def raw_request(self, raw: bytes) -> HTTPResponse:
        """Ship arbitrary bytes on a fresh connection (malformed-input tests)."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(raw)
            await writer.drain()
            return await protocol.read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        stream_id: Union[str, int],
        event: Optional[StreamEvent] = None,
        *,
        key: Optional[Union[str, int]] = None,
        value: Optional[Sequence[int]] = None,
        time: float = 0.0,
    ) -> NetSubmitResult:
        """Submit one arrival; pass a ``StreamEvent`` or key/value/time."""
        if event is not None:
            payload = event_to_wire(event)
        else:
            if key is None or value is None:
                raise ValueError("submit needs an event or key= and value=")
            payload = {"time": time, "key": key, "value": list(value)}
        response = await self.request(
            "POST", f"/v1/streams/{stream_id}/events", payload
        )
        body = response.json()
        if not isinstance(body, dict) or "status" not in body:
            if isinstance(body, dict) and "error" in body:
                raise ServingUnavailableError(response.status, body["error"])
            raise protocol.WireFormatError(
                f"unexpected submit response ({response.status}): {body!r}"
            )
        return NetSubmitResult(
            status=body["status"],
            http_status=response.status,
            stream_id=body["stream_id"],
            shard_id=body["shard_id"],
            queue_depth=body["queue_depth"],
            decisions=tuple(
                NetDecision.from_wire(item) for item in body["decisions"]
            ),
        )

    async def decisions(self) -> AsyncIterator[NetDecision]:
        """Iterate the server-push decision stream on a dedicated connection.

        Terminates when the server ends the stream (gateway shutdown).
        Breaking out of the iteration (or ``aclose()``) closes the
        connection, which is how the server learns the consumer is gone.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                protocol.render_request(
                    "GET", "/v1/decisions", f"{self.host}:{self.port}"
                )
            )
            await writer.drain()
            head = await protocol.read_stream_head(reader)
            if head.status != 200:
                raise protocol.WireFormatError(
                    f"decision stream refused: {head.status}"
                )
            buffer = b""
            while True:
                chunk = await protocol.read_chunk(reader)
                if chunk is None:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue  # heartbeat
                    yield NetDecision.from_wire(json.loads(line))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # stats / admin verbs
    # ------------------------------------------------------------------ #
    async def stats(self) -> Dict[str, object]:
        return (await self.request("GET", "/v1/stats")).json()

    async def health(self) -> Dict[str, object]:
        return (await self.request("GET", "/v1/health")).json()

    async def _post(
        self, target: str, payload: Optional[object] = None
    ) -> Dict[str, object]:
        """POST to ``target`` and return the JSON body; any status but 200
        raises :class:`RuntimeError` naming the target, status and body."""
        response = await self.request("POST", target, payload)
        body = response.json()
        if response.status != 200:
            raise RuntimeError(f"POST {target} failed ({response.status}): {body}")
        return body

    async def drain(self) -> List[NetDecision]:
        return self._decision_list(await self._post("/v1/admin/drain"))

    async def flush(self) -> List[NetDecision]:
        return self._decision_list(await self._post("/v1/admin/flush"))

    async def flush_stream(self, stream_id: Union[str, int]) -> List[NetDecision]:
        return self._decision_list(await self._post(f"/v1/streams/{stream_id}/flush"))

    async def snapshot(self) -> str:
        return (await self._post("/v1/admin/snapshot"))["snapshot_id"]

    async def restore(self, snapshot_id: str) -> None:
        await self._post("/v1/admin/restore", {"snapshot_id": snapshot_id})

    async def shutdown(self) -> List[NetDecision]:
        return self._decision_list(await self._post("/v1/admin/shutdown"))

    @staticmethod
    def _decision_list(body: object) -> List[NetDecision]:
        if not isinstance(body, dict) or "decisions" not in body:
            raise protocol.WireFormatError(f"unexpected response body: {body!r}")
        return [NetDecision.from_wire(item) for item in body["decisions"]]

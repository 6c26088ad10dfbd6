"""The stdlib HTTP/1.1 front end over an :class:`AsyncServingGateway`.

``ServingHTTPServer`` binds an ``asyncio.start_server`` listener and maps
the serving layer's push-based API onto a small REST surface:

=======  ==============================  =====================================
method   path                            semantics
=======  ==============================  =====================================
POST     ``/v1/streams/{id}/events``     admit one arrival; the admission
                                         status picks the response code
                                         (accepted → 202, degraded → 503;
                                         an arrival older than its stream's
                                         newest item → 400).  A full shard
                                         queue is served a round, then
                                         admitted.  No decision is inlined:
                                         the round that serves the arrival
                                         pushes its decisions on
                                         ``/v1/decisions``
POST     ``/v1/streams/{id}/flush``      flush one stream (drain its shard,
                                         force-decide that stream's keys)
GET      ``/v1/decisions``               chunked NDJSON server-push stream of
                                         every emitted decision, fed by a
                                         bounded ``AsyncQueueSink`` — a slow
                                         reader blocks the publishing worker
                                         (real backpressure), a vanished one
                                         is unsubscribed
GET      ``/v1/stats``                   ``gateway.stats()`` (pure JSON)
GET      ``/v1/health``                  ``gateway.health()`` (pure JSON)
POST     ``/v1/admin/drain``             drain every shard queue
POST     ``/v1/admin/flush``             flush the whole cluster
POST     ``/v1/admin/snapshot``          capture a server-held snapshot,
                                         returns its id
POST     ``/v1/admin/restore``           restore a held snapshot by id
POST     ``/v1/admin/shutdown``          flush + close the gateway; the
                                         listener stays up so clients observe
                                         the ``draining``/``closed`` 503s
=======  ==============================  =====================================

Lifecycle: ``running`` (submits admitted) → ``draining`` (shutdown verb or
:meth:`ServingHTTPServer.close` in progress — submits 503, reads still
served) → ``closed``.  Malformed requests 400 with a JSON error body; an
unparseable byte stream closes the connection after the 400 (framing is no
longer trustworthy).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Set

from repro.serving.aio import AsyncServingGateway
from repro.serving.cluster import ClusterSnapshot, OutOfOrderEventError
from repro.serving.net import protocol
from repro.serving.net.protocol import (
    STATUS_TO_HTTP,
    HTTPRequest,
    WireFormatError,
    decision_to_wire,
    error_body,
    event_from_wire,
    submit_result_to_wire,
)
from repro.serving.sinks import AsyncQueueSink

__all__ = ["ServingHTTPServer"]


class ServingHTTPServer:
    """Serve an :class:`AsyncServingGateway` over loopback-or-LAN HTTP.

    Construct over an existing gateway (shared ownership: the server closes
    the gateway only via the shutdown verb or when it owns it) or from
    model/spec/config, in which case the server builds and owns one.
    ``port=0`` binds an ephemeral port, published as :attr:`port` after
    :meth:`start` — the loopback-test shape.
    """

    def __init__(
        self,
        gateway: Optional[AsyncServingGateway] = None,
        *,
        model=None,
        spec=None,
        config=None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_buffered: int = 256,
        heartbeat_s: float = 15.0,
    ) -> None:
        if max_buffered < 0:
            raise ValueError("max_buffered must be >= 0 (0 = unbounded)")
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {port}")
        if gateway is None:
            if model is None or spec is None:
                raise ValueError(
                    "ServingHTTPServer needs either a gateway= or a "
                    "model + spec (+ optional config) to build one"
                )
            gateway = AsyncServingGateway(model, spec, config)
            self._owns_gateway = True
        else:
            if model is not None or spec is not None or config is not None:
                raise ValueError("pass either gateway= or model/spec/config")
            self._owns_gateway = False
        self.gateway = gateway
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._max_buffered = max_buffered
        self._heartbeat_s = heartbeat_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._state = "idle"
        self._stream_tasks: Set[asyncio.Task] = set()
        self._snapshots: Dict[str, ClusterSnapshot] = {}
        self._snapshot_seq = 0
        self._connections = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        return self._state

    async def start(self) -> "ServingHTTPServer":
        """Bind the listener; resolves the ephemeral port."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._state = "running"
        return self

    async def close(self) -> None:
        """Stop accepting, close the gateway (if owned), kill live streams."""
        if self._server is None or self._state == "closed":
            self._state = "closed"
            return
        self._state = "draining"
        self._server.close()
        await self._server.wait_closed()
        if self._owns_gateway and self.gateway.state != "closed":
            await self.gateway.close()
        for task in list(self._stream_tasks):
            task.cancel()
        if self._stream_tasks:
            await asyncio.gather(*self._stream_tasks, return_exceptions=True)
        self._state = "closed"

    async def __aenter__(self) -> "ServingHTTPServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except WireFormatError as error:
                    writer.write(
                        protocol.json_response(400, error_body(str(error)))
                    )
                    await writer.drain()
                    return  # framing is untrustworthy after a parse error
                if request is None:
                    return  # clean EOF: client closed the keep-alive socket
                if request.method == "GET" and request.path_parts == (
                    "v1",
                    "decisions",
                ):
                    # The connection becomes a decision stream and never
                    # returns to request/response framing.
                    await self._serve_decision_stream(writer)
                    return
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished; nothing to answer
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: server close() cancelled this handler; the
                # socket is going away regardless, end the task cleanly so
                # asyncio's stream callbacks don't log the cancellation.
                pass

    async def _dispatch(self, request: HTTPRequest) -> bytes:
        parts = request.path_parts
        try:
            if parts[:1] != ("v1",):
                return protocol.json_response(404, error_body("unknown path"))
            if len(parts) == 4 and parts[1] == "streams":
                stream_id, verb = parts[2], parts[3]
                if verb == "events":
                    if request.method != "POST":
                        return protocol.json_response(
                            405, error_body("submit events with POST")
                        )
                    return await self._handle_submit(stream_id, request)
                if verb == "flush":
                    if request.method != "POST":
                        return protocol.json_response(
                            405, error_body("flush with POST")
                        )
                    return await self._handle_flush_stream(stream_id)
                return protocol.json_response(404, error_body("unknown path"))
            if parts == ("v1", "stats"):
                if request.method != "GET":
                    return protocol.json_response(405, error_body("GET only"))
                return protocol.json_response(200, self.stats())
            if parts == ("v1", "health"):
                if request.method != "GET":
                    return protocol.json_response(405, error_body("GET only"))
                return protocol.json_response(200, self.gateway.health())
            if len(parts) == 3 and parts[1] == "admin":
                if request.method != "POST":
                    return protocol.json_response(
                        405, error_body("admin verbs are POST")
                    )
                return await self._handle_admin(parts[2], request)
            return protocol.json_response(404, error_body("unknown path"))
        except (WireFormatError, OutOfOrderEventError) as error:
            return protocol.json_response(400, error_body(str(error)))
        except RuntimeError as error:
            # Gateway/cluster lifecycle refusals ("gateway is closed", ...)
            return protocol.json_response(503, error_body(str(error)))

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _handle_submit(self, stream_id: str, request: HTTPRequest) -> bytes:
        if self._state != "running" or self.gateway.state != "running":
            state = (
                self._state if self._state != "running" else self.gateway.state
            )
            return protocol.json_response(
                503, error_body(f"not accepting submissions: state is {state}")
            )
        event = event_from_wire(
            request.json(), self.gateway.cluster.spec, stream_id
        )
        result = await self.gateway.submit(event, stream_id=stream_id)
        return protocol.json_response(
            STATUS_TO_HTTP[result.status],
            submit_result_to_wire(result),
            {"X-Admission-Status": result.status},
        )

    async def _handle_flush_stream(self, stream_id: str) -> bytes:
        emitted = await self.gateway.flush_stream(stream_id)
        return protocol.json_response(
            200, {"decisions": [decision_to_wire(sd) for sd in emitted]}
        )

    async def _handle_admin(self, verb: str, request: HTTPRequest) -> bytes:
        if verb == "drain":
            emitted = await self.gateway.drain()
        elif verb == "flush":
            emitted = await self.gateway.flush()
        elif verb == "snapshot":
            snapshot = await self.gateway.snapshot()
            self._snapshot_seq += 1
            snapshot_id = f"snap-{self._snapshot_seq}"
            self._snapshots[snapshot_id] = snapshot
            return protocol.json_response(200, {"snapshot_id": snapshot_id})
        elif verb == "restore":
            payload = request.json()
            if not isinstance(payload, dict) or "snapshot_id" not in payload:
                raise WireFormatError("restore needs a 'snapshot_id'")
            if not isinstance(payload["snapshot_id"], str):
                raise WireFormatError("restore 'snapshot_id' must be a string")
            snapshot = self._snapshots.get(payload["snapshot_id"])
            if snapshot is None:
                return protocol.json_response(
                    404, error_body(f"unknown snapshot {payload['snapshot_id']!r}")
                )
            await self.gateway.restore(snapshot)
            return protocol.json_response(
                200, {"restored": payload["snapshot_id"]}
            )
        elif verb == "shutdown":
            # Reads stay served after the flush; submits 503 from here on.
            self._state = "draining"
            emitted = await self.gateway.close()
            return protocol.json_response(
                200,
                {
                    "state": self.gateway.state,
                    "decisions": [decision_to_wire(sd) for sd in emitted],
                },
            )
        else:
            return protocol.json_response(404, error_body(f"unknown admin verb {verb!r}"))
        return protocol.json_response(
            200, {"decisions": [decision_to_wire(sd) for sd in emitted]}
        )

    # ------------------------------------------------------------------ #
    # the decision stream
    # ------------------------------------------------------------------ #
    async def _serve_decision_stream(self, writer: asyncio.StreamWriter) -> None:
        """Push every emitted decision as chunked NDJSON until either side ends.

        The bounded :class:`AsyncQueueSink` is the backpressure: a reader
        that stops consuming fills the queue and blocks the publishing
        worker.  Heartbeat chunks (empty NDJSON lines, every
        ``heartbeat_s``) bound how long a silently-vanished reader can keep
        its subscription — the first write against the dead socket raises
        and the ``finally`` unsubscribes.
        """
        task = asyncio.current_task()
        self._stream_tasks.add(task)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self._max_buffered)
        sink = AsyncQueueSink(queue, loop)
        cluster = self.gateway.cluster
        cluster.subscribe(sink)
        try:
            writer.write(protocol.render_response(200, chunked=True))
            await writer.drain()
            while True:
                if self.gateway.state == "closed" and queue.empty():
                    break
                try:
                    decision = await asyncio.wait_for(
                        queue.get(), timeout=self._heartbeat_s
                    )
                except asyncio.TimeoutError:
                    # Idle heartbeat: detects dead sockets, keeps NDJSON
                    # consumers trivially compatible (blank line).
                    writer.write(protocol.render_chunk(b"\n"))
                    await writer.drain()
                    continue
                line = json.dumps(decision_to_wire(decision)) + "\n"
                writer.write(protocol.render_chunk(line.encode("utf-8")))
                await writer.drain()
            writer.write(protocol.render_last_chunk())
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # reader vanished or server closing: just unsubscribe
        finally:
            cluster.unsubscribe(sink)
            sink.close()
            self._stream_tasks.discard(task)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Gateway stats plus the server's own connection accounting."""
        stats = self.gateway.stats()
        stats["server"] = {
            "state": self._state,
            "host": self.host,
            "port": self.port,
            "connections": self._connections,
            "decision_streams": len(self._stream_tasks),
            "held_snapshots": sorted(self._snapshots),
        }
        return stats

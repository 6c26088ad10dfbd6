"""Asyncio serving gateway: awaitable submission and async decision streams.

The cluster is thread-blocking by design — every call returns with its
work complete.  An event-loop application must never block the loop on a
drain round, so :class:`AsyncServingGateway` wraps the cluster the
asyncio-native way (the HTTP tier, :mod:`repro.serving.net`, runs on it):

* ``await gateway.submit(event)`` — admission, and any drain round the
  submission triggers, runs *off-loop*: the call is dispatched to a thread
  (``loop.run_in_executor``) and the heavy shard work still executes on the
  cluster's own execution backend — with ``executor="thread"`` every round
  runs on its shard's pinned pool worker exactly as in synchronous serving.
  The event loop only ever awaits; backpressure (``overflow="drain"``
  synchronous rounds, bounded decision buffering) becomes awaitable instead
  of loop-blocking.
* ``async for decision in gateway.decisions()`` — every emitted decision,
  pushed through an :class:`~repro.serving.sinks.AsyncQueueSink` onto the
  loop.  With ``max_buffered=n`` the queue is bounded and a full buffer
  blocks the *publishing worker* until the consumer catches up — end-to-end
  backpressure from the consumer into the serving layer (a concurrently
  running consumer task is then required, including across ``close()``).
* ``gateway.result(stream_id, key)`` — an :class:`asyncio.Future` resolved
  on the loop when that key's decision is emitted, kept by the gateway's
  first-emission :class:`DecisionRegistry`.

Concurrency: submissions from many tasks run concurrently when the cluster
uses the thread backend (admission is lock-guarded, rounds are shard-pinned,
and per-stream delivery order is exact as long as each stream's events are
submitted in order — one task per stream is the natural shape).  Cluster-wide
operations (``drain`` / ``flush`` / ``expire`` / ``close``) take an exclusive
gate so their merge-point publication cannot interleave with submission-path
publication.  With the serial backend *every* operation is exclusive (the
serial cluster is single-threaded by contract).

Lifecycle: ``running`` → ``draining`` (``close()`` flushes, resolves what
resolves) → ``closed`` (unresolved futures cancelled, the decision stream
terminates).  Decision futures fire at most once; replays after a cluster
restore re-feed ``decisions()`` but never re-fire a future.

No third-party dependencies: everything is stdlib ``asyncio`` (tests drive
it with ``asyncio.run``).
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import asynccontextmanager
from functools import partial
from typing import AsyncIterator, Callable, Dict, Hashable, List, Optional, Tuple

from repro.data.items import ValueSpec
from repro.serving.cluster import ClusterConfig, ServingCluster, StreamDecision
from repro.serving.engine import Decision
from repro.serving.results import SubmitResult
from repro.serving.sinks import AsyncQueueSink, DecisionSink

__all__ = ["AsyncServingGateway"]


class DecisionRegistry:
    """First-emission registry mapping ``(stream, key)`` to decisions/futures.

    The gateway's per-key bookkeeping: records each (stream, key)'s *first*
    emitted decision, keeps per-stream emission order, and pairs
    not-yet-decided keys with futures handed out by ``result()``.  Replay
    re-emissions after a restore are ignored — futures fire at most once,
    which is the pinned restore contract.

    ``future_factory`` supplies the futures (``loop.create_future``); they
    expose ``done`` / ``set_result`` / ``cancel``.  Access is serialized by
    an internal lock, so the registry is safe to touch from any thread; the
    gateway only ever touches it from the loop thread, where the
    uncontended lock is noise.
    """

    def __init__(self, future_factory: Callable[[], "asyncio.Future"]) -> None:
        self._future_factory = future_factory
        self._lock = threading.Lock()
        self._decided: Dict[Tuple[Hashable, Hashable], Decision] = {}
        self._stream_order: Dict[Hashable, List[Decision]] = {}
        self._futures: Dict[Tuple[Hashable, Hashable], "asyncio.Future"] = {}

    @staticmethod
    def _resolve(future: "asyncio.Future", decision: Decision) -> None:
        """Resolve a future, tolerating a caller-side cancel racing us."""
        if future.done():
            return
        try:
            future.set_result(decision)
        except Exception:
            # set_result raises InvalidStateError when the holder cancelled
            # between our done() check and the set_result; the cancellation
            # wins and the delivery must not crash the round.
            if not future.cancelled():
                raise

    def deliver(self, stream_decision: StreamDecision) -> None:
        """Fold one published decision in; resolves its future if pending."""
        registry_key = (stream_decision.stream_id, stream_decision.decision.key)
        with self._lock:
            if registry_key in self._decided:
                return
            self._decided[registry_key] = stream_decision.decision
            self._stream_order.setdefault(stream_decision.stream_id, []).append(
                stream_decision.decision
            )
            future = self._futures.pop(registry_key, None)
        if future is not None:
            self._resolve(future, stream_decision.decision)

    def future_for(self, stream_id: Hashable, key: Hashable) -> "asyncio.Future":
        """The (shared) future of one key — already resolved if decided."""
        registry_key = (stream_id, key)
        with self._lock:
            decision = self._decided.get(registry_key)
            if decision is None:
                existing = self._futures.get(registry_key)
                if existing is not None:
                    return existing
                future = self._future_factory()
                self._futures[registry_key] = future
                return future
        future = self._future_factory()
        self._resolve(future, decision)
        return future

    def decided(self, stream_id: Hashable, key: Hashable) -> Optional[Decision]:
        with self._lock:
            return self._decided.get((stream_id, key))

    def stream_decisions(self, stream_id: Hashable) -> List[Decision]:
        with self._lock:
            return list(self._stream_order.get(stream_id, ()))

    def cancel_unresolved(self, stream_id: Optional[Hashable] = None) -> None:
        """Cancel pending futures (of one stream, or all)."""
        with self._lock:
            if stream_id is None:
                doomed = list(self._futures.values())
                self._futures.clear()
            else:
                doomed = [
                    self._futures.pop(registry_key)
                    for registry_key in [k for k in self._futures if k[0] == stream_id]
                ]
        for future in doomed:
            future.cancel()

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._futures)

    @property
    def resolved_count(self) -> int:
        with self._lock:
            return len(self._decided)


class _OpGate:
    """Shared/exclusive async gate (submissions shared, cluster ops exclusive).

    Writer-preferring: once an exclusive waiter queues up, new shared
    entrants wait, so a ``drain``/``close`` cannot be starved by a steady
    stream of submissions.  With ``exclusive_only=True`` (serial execution
    backend) shared entry degrades to exclusive entry.
    """

    def __init__(self, exclusive_only: bool = False) -> None:
        self._cond = asyncio.Condition()
        self._shared = 0
        self._exclusive = False
        self._exclusive_waiting = 0
        self._exclusive_only = exclusive_only

    @asynccontextmanager
    async def shared(self):
        if self._exclusive_only:
            async with self.exclusive():
                yield
            return
        async with self._cond:
            while self._exclusive or self._exclusive_waiting:
                await self._cond.wait()
            self._shared += 1
        try:
            yield
        finally:
            async with self._cond:
                self._shared -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def exclusive(self):
        async with self._cond:
            self._exclusive_waiting += 1
            try:
                while self._exclusive or self._shared:
                    await self._cond.wait()
                self._exclusive = True
            finally:
                self._exclusive_waiting -= 1
        try:
            yield
        finally:
            async with self._cond:
                self._exclusive = False
                self._cond.notify_all()


class _RegistrySink(DecisionSink):
    """Loop-side :class:`DecisionRegistry` delivery (future resolution).

    Decision *streams* get their own per-iterator :class:`AsyncQueueSink`
    (see :meth:`AsyncServingGateway.decisions`); this sink carries only the
    registry half of delivery, so futures resolve whether or not anyone is
    iterating.
    """

    def __init__(
        self,
        loop,
        registry: DecisionRegistry,
        history: List[StreamDecision],
        history_lock: threading.Lock,
    ) -> None:
        self._loop = loop
        self._registry = registry
        self._history = history
        self._history_lock = history_lock
        self._closed = False

    def publish(self, decision: StreamDecision) -> None:
        if self._closed or self._loop.is_closed():
            # Drop-don't-crash guard: an abandoned gateway whose loop is
            # gone must not break the serving layer.
            return
        # Record on the publishing thread, *before* the loop callback: the
        # history is what late ``decisions()`` subscribers replay, and it
        # must be complete by the time any future resolved by this decision
        # can be observed.
        with self._history_lock:
            self._history.append(decision)
        # Registry mutation and asyncio-future resolution belong on the loop.
        self._loop.call_soon_threadsafe(self._registry.deliver, decision)

    def close(self) -> None:
        self._closed = True


class AsyncServingGateway:
    """Awaitable push-based serving over a :class:`ServingCluster`.

    Construct with a model/spec/config (the gateway owns and closes the
    cluster) or wrap an existing cluster.  The gateway binds to the event
    loop of the first awaited call; all later calls must come from the same
    loop.  Usable as an async context manager (``async with`` closes it).
    """

    _SENTINEL = object()

    def __init__(
        self,
        model=None,
        spec: Optional[ValueSpec] = None,
        config: Optional[ClusterConfig] = None,
        *,
        cluster: Optional[ServingCluster] = None,
        max_buffered: int = 0,
    ) -> None:
        if cluster is None:
            if model is None or spec is None:
                raise ValueError(
                    "AsyncServingGateway needs either an existing cluster= or "
                    "a model + spec (+ optional config) to build one"
                )
            cluster = ServingCluster(model, spec, config)
            self._owns_cluster = True
        else:
            if model is not None or spec is not None or config is not None:
                raise ValueError(
                    "pass either cluster= or model/spec/config, not both"
                )
            self._owns_cluster = False
        if max_buffered < 0:
            raise ValueError("max_buffered must be >= 0 (0 = unbounded)")
        self._cluster = cluster
        self._max_buffered = max_buffered
        self._state = "running"
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._sink: Optional[_RegistrySink] = None
        #: Active ``decisions()`` iterators: sink → its bounded queue.  Each
        #: iterator owns a private subscription, added when iteration starts
        #: and removed in the generator's ``finally`` — so a consumer that
        #: vanishes mid-stream (task cancelled, iterator garbage-collected,
        #: HTTP client disconnected) tears its bounded buffer down instead
        #: of exerting backpressure forever.
        self._iterators: Dict[AsyncQueueSink, asyncio.Queue] = {}
        #: Every decision delivered through this gateway, in delivery order.
        #: ``decisions()`` iterators replay it before going live, so a
        #: consumer that starts late (or after close) still sees the full
        #: stream — the sequential-caller parity contract.  Appended on the
        #: publishing thread, snapshotted on the loop, hence the lock.
        self._delivered: List[StreamDecision] = []
        self._delivered_lock = threading.Lock()
        self._gate: Optional[_OpGate] = None
        #: Shared first-emission bookkeeping (see DecisionRegistry): the
        #: asyncio flavour only ever mutates it on the bound loop, via
        #: call_soon_threadsafe deliveries.  Created at loop binding so the
        #: future factory can target the loop.
        self._registry: Optional[DecisionRegistry] = None

    # ------------------------------------------------------------------ #
    # loop binding / lifecycle
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._gate = _OpGate(
                exclusive_only=self._cluster.config.executor == "serial"
            )
            self._registry = DecisionRegistry(loop.create_future)
            self._sink = _RegistrySink(
                loop, self._registry, self._delivered, self._delivered_lock
            )
            self._cluster.subscribe(self._sink)
        elif loop is not self._loop:
            raise RuntimeError(
                "AsyncServingGateway is bound to a different event loop"
            )

    async def _run(self, fn, *args, **kwargs):
        """Run a blocking cluster call off-loop and await its result."""
        return await self._loop.run_in_executor(
            None, partial(fn, *args, **kwargs)
        )

    @property
    def state(self) -> str:
        return self._state

    @property
    def cluster(self) -> ServingCluster:
        return self._cluster

    def _require_running(self, operation: str) -> None:
        if self._state != "running":
            raise RuntimeError(f"cannot {operation}: gateway is {self._state}")

    async def close(self) -> List[StreamDecision]:
        """Stop the gateway: ``running`` → ``draining`` → ``closed``.

        An *owned* cluster is flushed (resolving every future the final
        decisions can) and closed; a *wrapped* cluster is shared with other
        users, so the gateway only detaches — flush explicitly first if you
        want the final decisions.  Unresolved futures are cancelled and the
        ``decisions()`` iterator terminates.  Idempotent (repeat calls
        return an empty list).
        """
        if self._state == "closed":
            return []
        self._bind()
        self._state = "draining"
        async with self._gate.exclusive():
            if self._owns_cluster and self._cluster.state != "closed":
                emitted = await self._run(self._cluster.flush)
            else:
                emitted = []
        # Deliveries issued by the flush were scheduled with
        # call_soon_threadsafe before it returned; yield once so they run
        # before we decide which futures are unresolvable.
        await asyncio.sleep(0)
        self._registry.cancel_unresolved()
        self._cluster.unsubscribe(self._sink)
        self._sink.close()
        if self._owns_cluster:
            self._cluster.close()
        self._state = "closed"
        # Terminate every active decision stream: close the sinks first (no
        # further publishes can land or block), then wake each consumer.  A
        # full bounded queue skips the sentinel — its consumer drains the
        # backlog and observes state "closed" on an empty queue instead.
        for sink, queue in list(self._iterators.items()):
            self._cluster.unsubscribe(sink)
            sink.close()
            try:
                queue.put_nowait(self._SENTINEL)
            except asyncio.QueueFull:
                pass
        return emitted

    async def __aenter__(self) -> "AsyncServingGateway":
        self._bind()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        event,
        stream_id: Optional[Hashable] = None,
        raise_on_reject: bool = True,
    ) -> SubmitResult:
        """Awaitable arrival submission (admission + any triggered rounds).

        Runs off-loop; concurrent submit tasks overlap under the thread
        backend.  Per-stream decision order is exact as long as each
        stream's events are submitted in order (e.g. one task per stream).
        """
        self._require_running("submit")
        self._bind()
        async with self._gate.shared():
            return await self._run(
                self._cluster.submit,
                event,
                stream_id=stream_id,
                raise_on_reject=raise_on_reject,
            )

    async def drain(self) -> List[StreamDecision]:
        """Awaitable cluster drain (exclusive; shards overlap off-loop)."""
        self._bind()
        async with self._gate.exclusive():
            return await self._run(self._cluster.drain)

    async def flush(self) -> List[StreamDecision]:
        """Awaitable cluster flush (exclusive)."""
        self._bind()
        async with self._gate.exclusive():
            return await self._run(self._cluster.flush)

    async def expire(self, now: Optional[float] = None) -> List[StreamDecision]:
        """Awaitable idle-key expiry (exclusive)."""
        self._bind()
        async with self._gate.exclusive():
            return await self._run(self._cluster.expire, now)

    async def flush_stream(self, stream_id: Hashable) -> List[StreamDecision]:
        """Awaitable per-stream flush (exclusive; the HTTP per-stream verb)."""
        self._bind()
        async with self._gate.exclusive():
            return await self._run(self._cluster.flush_stream, stream_id)

    async def snapshot(self):
        """Awaitable cluster snapshot (exclusive — no round interleaves)."""
        self._bind()
        async with self._gate.exclusive():
            return await self._run(self._cluster.snapshot)

    async def restore(self, snapshot) -> None:
        """Awaitable cluster restore (exclusive)."""
        self._bind()
        async with self._gate.exclusive():
            await self._run(self._cluster.restore, snapshot)

    def result(
        self, stream_id: Hashable, key: Hashable
    ) -> "asyncio.Future[Decision]":
        """A loop-side future resolved when the key's decision is emitted.

        Call from the bound loop.  Already-decided keys resolve immediately;
        futures still pending at :meth:`close` are cancelled, and a request
        made *after* close for an undecided key comes back already cancelled
        (the one-time cancellation sweep cannot fire again).
        """
        self._bind()
        if self._state == "closed":
            decision = self._registry.decided(stream_id, key)
            future: "asyncio.Future[Decision]" = self._loop.create_future()
            if decision is not None:
                future.set_result(decision)
            else:
                future.cancel()
            return future
        return self._registry.future_for(stream_id, key)

    def decided(self, stream_id: Hashable, key: Hashable) -> Optional[Decision]:
        return None if self._registry is None else self._registry.decided(stream_id, key)

    def stream_decisions(self, stream_id: Hashable) -> List[Decision]:
        """One stream's decisions so far, in emission order (loop-side view)."""
        return [] if self._registry is None else self._registry.stream_decisions(stream_id)

    async def decisions(self) -> AsyncIterator[StreamDecision]:
        """Async-iterate every emitted decision until the gateway closes.

        Each call owns a private :class:`AsyncQueueSink` subscription, so
        concurrent iterators each see the full decision stream (broadcast,
        not work-stealing) — one per HTTP decision-stream connection is the
        intended shape.  An iterator started late first *replays* the
        decisions already delivered (in delivery order, same objects) and
        then goes live, so a sequential caller that iterates after
        ``close()`` still sees the exact concatenated pull-API stream.

        With ``max_buffered`` set each iterator's live queue is bounded and
        a stalled consumer blocks the publishing worker (that is the
        backpressure); a consumer that stops iterating — task cancelled,
        iterator dropped and garbage-collected, client disconnected — is
        unsubscribed in the generator's ``finally``, so an abandoned stream
        never throttles the serving layer.
        """
        self._bind()
        # Snapshot the replay backlog *before* subscribing live: a decision
        # recorded before the snapshot cannot also reach the new sink (its
        # publish fan-out predates the subscription), so replay + live never
        # duplicates.
        with self._delivered_lock:
            backlog = list(self._delivered)
        live = self._state != "closed"
        if live:
            queue: asyncio.Queue = asyncio.Queue(maxsize=self._max_buffered)
            sink = AsyncQueueSink(queue, self._loop)
            self._iterators[sink] = queue
            self._cluster.subscribe(sink)
        try:
            for item in backlog:
                yield item
            if not live:
                return
            while True:
                if self._state == "closed" and queue.empty():
                    return
                item = await queue.get()
                if item is self._SENTINEL:
                    return
                yield item
        finally:
            if live:
                self._detach_iterator(sink)

    def _detach_iterator(self, sink: AsyncQueueSink) -> None:
        """Tear one decision iterator's subscription down (idempotent)."""
        if self._iterators.pop(sink, None) is not None:
            self._cluster.unsubscribe(sink)
            sink.close()

    def stats(self) -> Dict[str, object]:
        stats = self._cluster.stats()
        stats["gateway_state"] = self._state
        stats["pending_futures"] = 0 if self._registry is None else self._registry.pending_count
        stats["resolved_keys"] = 0 if self._registry is None else self._registry.resolved_count
        stats["decision_streams"] = len(self._iterators)
        stats["buffered_decisions"] = sum(
            queue.qsize() for queue in self._iterators.values()
        )
        return stats

    def health(self) -> Dict[str, object]:
        """The cluster's fault-tolerance view (breakers, restores, sinks).

        Safe to call from the loop thread: reading health never touches
        serving state, so it cannot block behind a drain.  An ``await
        gateway.submit(...)`` returning ``status="degraded"`` means the
        stream's shard has its breaker open — this view says why and
        whether a checkpoint recovery already ran.
        """
        return self._cluster.health()

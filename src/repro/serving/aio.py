"""Asyncio serving gateway: admission on the loop, rounds on one thread.

The cluster is thread-blocking by design — every call returns with its
work complete.  :class:`AsyncServingGateway` serves it the asyncio-native
way (the HTTP tier, :mod:`repro.serving.net`, runs on it), and the event
loop never runs a drain round:

* ``await gateway.submit(event)`` — admission only, on the loop: the
  arrival is checked and enqueued on its shard
  (:meth:`~repro.serving.cluster.ServingCluster.admit`, no thread hop) and
  the admission outcome comes back (``accepted`` when enqueued; no
  decisions ride along).  A submission that finds its shard's queue full
  awaits one round of that shard
  (:meth:`~repro.serving.cluster.ServingCluster.serve_shard`) on the round
  thread, then retries admission: backpressure is awaitable instead of
  loop-blocking.
* Continuous batching (``ClusterConfig.auto_drain``, the default): one
  round task per gateway feeds one thread the gateway owns.  While any
  shard has queued arrivals, each step
  (:meth:`~repro.serving.cluster.ServingCluster.serve_queued`) runs one
  round on every such shard (at most ``batch_size`` arrivals, one per
  stream), and arrivals admitted while a step runs form the next one —
  rounds widen with load, with no timeout and no controller.  Every
  gateway-driven round is driven from that thread: the serial backend runs
  it there; with ``executor="thread"`` the step dispatches every queued
  shard's round to its pinned worker before awaiting any, so shards'
  rounds overlap.
* ``async for decision in gateway.decisions()`` — every emitted decision in
  publication order, read from the gateway's decision history (an iterator
  that starts late replays it first).  Publishing never waits on a reader;
  the HTTP push stream bounds each consumer with its own bounded
  :class:`~repro.serving.sinks.AsyncQueueSink`.
* ``gateway.result(stream_id, key)`` — an :class:`asyncio.Future` resolved
  on the loop when that key's decision is emitted, kept by the gateway's
  first-emission :class:`DecisionRegistry`.

Concurrency: admissions and round steps share an async gate; the
cluster-wide operations (``drain`` / ``flush`` / ``flush_stream`` /
``snapshot`` / ``restore`` / ``close``) take it exclusively
and run off-loop, so none of them interleaves with an admission or a
round step.  Per-stream decision order is exact as long as each stream's
events are submitted in order (one task per stream is the natural shape).

Lifecycle: ``running`` → ``draining`` (``close()`` stops the round task,
flushes, resolves what resolves) → ``closed`` (unresolved futures
cancelled, the round thread shut down, decision streams end once they have
read the history).  Decision futures fire at most once; replays after a
cluster restore re-feed ``decisions()`` but never re-fire a future.

No third-party dependencies: everything is stdlib ``asyncio`` (tests drive
it with ``asyncio.run``).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from typing import AsyncIterator, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.data.items import ValueSpec
from repro.serving.cluster import ClusterConfig, ServingCluster, StreamDecision
from repro.serving.engine import Decision
from repro.serving.results import SubmitResult
from repro.serving.sinks import DecisionSink

__all__ = ["AsyncServingGateway"]


class DecisionRegistry:
    """First-emission registry mapping ``(stream, key)`` to decisions/futures.

    The gateway's per-key bookkeeping: records each (stream, key)'s *first*
    emitted decision, keeps per-stream emission order, and pairs
    not-yet-decided keys with futures handed out by ``result()``.  Replay
    re-emissions after a restore are ignored — futures fire at most once,
    which is the pinned restore contract.  Loop-thread only: publishing
    threads hand decisions over with ``call_soon_threadsafe``.
    """

    def __init__(self) -> None:
        self._decided: Dict[Tuple[Hashable, Hashable], Decision] = {}
        self._stream_order: Dict[Hashable, List[Decision]] = {}
        self._futures: Dict[Tuple[Hashable, Hashable], "asyncio.Future"] = {}

    def deliver(self, stream_decision: StreamDecision) -> None:
        """Fold one published decision in; resolves its future if pending."""
        registry_key = (stream_decision.stream_id, stream_decision.decision.key)
        if registry_key in self._decided:
            return
        self._decided[registry_key] = stream_decision.decision
        self._stream_order.setdefault(stream_decision.stream_id, []).append(
            stream_decision.decision
        )
        future = self._futures.pop(registry_key, None)
        # done() here means the holder cancelled it; the cancellation wins.
        if future is not None and not future.done():
            future.set_result(stream_decision.decision)

    def future_for(self, stream_id: Hashable, key: Hashable) -> "asyncio.Future":
        """The (shared) future of one key — already resolved if decided."""
        registry_key = (stream_id, key)
        future = self._futures.get(registry_key)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            decision = self._decided.get(registry_key)
            if decision is None:
                self._futures[registry_key] = future
            else:
                future.set_result(decision)
        return future

    def decided(self, stream_id: Hashable, key: Hashable) -> Optional[Decision]:
        return self._decided.get((stream_id, key))

    def stream_decisions(self, stream_id: Hashable) -> List[Decision]:
        return list(self._stream_order.get(stream_id, ()))

    def cancel_unresolved(self) -> None:
        """Cancel every pending future."""
        for future in self._futures.values():
            future.cancel()
        self._futures.clear()

    @property
    def pending_count(self) -> int:
        return len(self._futures)

    @property
    def resolved_count(self) -> int:
        return len(self._decided)


class _OpGate:
    """Shared/exclusive async gate: admissions and round steps shared,
    cluster-wide operations exclusive.

    Writer-preferring: once an exclusive waiter queues up, new shared
    entrants wait, so a ``drain``/``close`` cannot be starved by a steady
    stream of submissions.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._shared = 0
        self._exclusive = False
        self._exclusive_waiting = 0

    @asynccontextmanager
    async def shared(self):
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


class _Feed:
    """One ``decisions()`` iterator's read position in the history."""

    __slots__ = ("position", "wake")

    def __init__(self) -> None:
        self.position = 0
        self.wake = asyncio.Event()


class _RegistrySink(DecisionSink):
    """The gateway's one cluster subscription: history, futures, iterators.

    ``publish_all`` appends each batch to the history and, under the same
    lock, schedules its loop-side delivery (registry futures, iterator
    wake-ups), so loop callbacks run in history order.  ``decisions()``
    iterators read the history itself from a position registered under
    that lock: an iterator that starts while a batch is in flight sees the
    batch exactly once, whichever side of its start the append lands on.
    Publishers never wait on readers.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, registry: DecisionRegistry
    ) -> None:
        self._loop = loop
        self._registry = registry
        self._lock = threading.Lock()
        #: Every decision delivered through the gateway, in delivery order.
        self._history: List[StreamDecision] = []
        self._feeds: List[_Feed] = []
        self.closed = False

    def publish(self, decision: StreamDecision) -> None:
        self.publish_all([decision])

    def publish_all(self, decisions: Sequence[StreamDecision]) -> None:
        if not decisions or self._loop.is_closed():
            # Drop-don't-crash guard: an abandoned gateway whose loop is
            # gone must not break the serving layer.
            return
        with self._lock:
            if self.closed:
                return
            self._history.extend(decisions)
            self._loop.call_soon_threadsafe(self._deliver, list(decisions))

    def _deliver(self, decisions: List[StreamDecision]) -> None:
        """Loop side of one published batch: futures, then iterator wake-ups."""
        for decision in decisions:
            self._registry.deliver(decision)
        for feed in self._feeds:
            feed.wake.set()

    def open_feed(self) -> _Feed:
        with self._lock:
            feed = _Feed()
            self._feeds.append(feed)
        return feed

    def read(self, feed: _Feed) -> Optional[StreamDecision]:
        """The feed's next decision, or ``None`` once it has read them all."""
        with self._lock:
            if feed.position == len(self._history):
                return None
            decision = self._history[feed.position]
            feed.position += 1
        return decision

    def close_feed(self, feed: _Feed) -> None:
        with self._lock:
            if feed in self._feeds:
                self._feeds.remove(feed)

    @property
    def num_feeds(self) -> int:
        return len(self._feeds)

    def close(self) -> None:
        """Stop taking decisions; iterators end once they have read the history."""
        with self._lock:
            self.closed = True
        for feed in self._feeds:
            feed.wake.set()


class AsyncServingGateway:
    """Awaitable push-based serving over a :class:`ServingCluster`.

    Construct with a model/spec/config (the gateway owns and closes the
    cluster) or wrap an existing cluster.  The gateway binds to the event
    loop of the first awaited call; all later calls must come from the same
    loop.  Usable as an async context manager (``async with`` closes it).
    """

    def __init__(
        self,
        model=None,
        spec: Optional[ValueSpec] = None,
        config: Optional[ClusterConfig] = None,
        *,
        cluster: Optional[ServingCluster] = None,
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
        self._cluster = cluster
        self._state = "running"
        # Everything below is created at loop binding.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._gate: Optional[_OpGate] = None
        self._registry: Optional[DecisionRegistry] = None
        self._sink: Optional[_RegistrySink] = None
        #: The one thread that runs (or, under ``executor="thread"``,
        #: dispatches) every gateway-driven round.
        self._rounds: Optional[ThreadPoolExecutor] = None
        #: The round task (``auto_drain`` only) and its wake-up, set by
        #: every admission.
        self._round_task: Optional[asyncio.Task] = None
        self._arrivals: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # loop binding / lifecycle
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._gate = _OpGate()
            self._registry = DecisionRegistry()
            self._sink = _RegistrySink(loop, self._registry)
            self._cluster.subscribe(self._sink)
            self._rounds = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gateway-rounds"
            )
            self._arrivals = asyncio.Event()
            if self._cluster.config.auto_drain:
                self._round_task = loop.create_task(self._serve_rounds())
        elif loop is not self._loop:
            raise RuntimeError(
                "AsyncServingGateway is bound to a different event loop"
            )

    async def _run(self, fn, *args):
        """Run a blocking cluster call off-loop and await its result."""
        return await self._loop.run_in_executor(None, fn, *args)

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

        Stops the round task and its thread.  An *owned* cluster goes
        through :meth:`ServingCluster.shutdown` (open breakers probe once,
        the final flush resolves every future its decisions can, and
        arrivals left queued count as lost); a *wrapped* cluster is shared
        with other users, so the gateway only detaches — flush explicitly
        first if you want the final decisions.
        Unresolved futures are cancelled and ``decisions()`` iterators end
        once they have read the history.  Idempotent (repeat calls return
        an empty list).
        """
        if self._state == "closed":
            return []
        self._bind()
        self._state = "draining"
        async with self._gate.exclusive():
            # No round step runs while the gate is held, so cancelling here
            # stops the round task before it can take another one.
            if self._round_task is not None:
                self._round_task.cancel()
            if self._owns_cluster and self._cluster.state != "closed":
                emitted = await self._run(self._cluster.shutdown)
            else:
                emitted = []
        # Deliveries issued by the flush were scheduled with
        # call_soon_threadsafe before it returned; yield once so they run
        # before we decide which futures are unresolvable.
        await asyncio.sleep(0)
        self._registry.cancel_unresolved()
        self._cluster.unsubscribe(self._sink)
        self._sink.close()
        self._rounds.shutdown()
        self._state = "closed"
        return emitted

    async def __aenter__(self) -> "AsyncServingGateway":
        self._bind()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # continuous batching
    # ------------------------------------------------------------------ #
    async def _serve_rounds(self) -> None:
        """The round task: step rounds on the round thread while arrivals
        are queued, then sleep until the next admission."""
        while True:
            await self._arrivals.wait()
            self._arrivals.clear()
            while any(shard.queue_depth for shard in self._cluster.shards):
                async with self._gate.shared():
                    served = await self._on_round_thread(self._cluster.serve_queued)
                if not served:
                    break  # every queued shard's breaker is open: wait for a probe

    async def _on_round_thread(self, fn, *args):
        """Run a round call on the gateway's round thread and await it."""
        return await self._loop.run_in_executor(self._rounds, fn, *args)

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #
    async def submit(
        self, event, stream_id: Optional[Hashable] = None
    ) -> SubmitResult:
        """Admit one arrival on the loop; its decisions are pushed, not returned.

        The result is the admission outcome only (``accepted`` when the
        arrival was enqueued).  Its decisions reach ``decisions()``, the
        ``result()`` futures and subscribed sinks once a round serves it —
        the next round of its shard with ``auto_drain``, or an explicit
        ``drain()``/``flush()`` without.  A full shard queue is awaited: one
        round of that shard runs on the round thread, then admission is
        retried.
        """
        self._bind()
        async with self._gate.shared():
            self._require_running("submit")
            while True:
                shard_id, result = self._cluster.admit(event, stream_id)
                if result is not None:
                    break
                await self._on_round_thread(self._cluster.serve_shard, shard_id)
        if result.admitted:
            self._arrivals.set()
        return result

    async def _exclusive(self, fn, *args):
        """Run one cluster-wide operation off-loop, exclusive of admissions
        and round steps."""
        self._bind()
        async with self._gate.exclusive():
            outcome = await self._run(fn, *args)
        self._arrivals.set()  # a restore, say, can leave arrivals queued
        return outcome

    async def drain(self) -> List[StreamDecision]:
        """Awaitable cluster drain (exclusive; shards overlap off-loop)."""
        return await self._exclusive(self._cluster.drain)

    async def flush(self) -> List[StreamDecision]:
        """Awaitable cluster flush (exclusive)."""
        return await self._exclusive(self._cluster.flush)

    async def flush_stream(self, stream_id: Hashable) -> List[StreamDecision]:
        """Awaitable per-stream flush (exclusive; the HTTP per-stream verb)."""
        return await self._exclusive(self._cluster.flush_stream, stream_id)

    async def snapshot(self):
        """Awaitable cluster snapshot (exclusive — no round interleaves)."""
        return await self._exclusive(self._cluster.snapshot)

    async def restore(self, snapshot) -> None:
        """Awaitable cluster restore (exclusive)."""
        await self._exclusive(self._cluster.restore, snapshot)

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

        Every iterator reads the gateway's whole decision history in
        delivery order (same objects), so concurrent iterators each see the
        full stream (broadcast, not work-stealing), one that starts late
        first replays what it missed, and a sequential caller that iterates
        after ``close()`` still sees everything.  An iterator ends once the
        gateway has closed and it has read the history.

        An iterator that stops — task cancelled, iterator dropped and
        garbage-collected, client disconnected — is detached in the
        generator's ``finally``.
        """
        self._bind()
        sink = self._sink
        feed = sink.open_feed()
        try:
            while True:
                decision = sink.read(feed)
                if decision is not None:
                    yield decision
                elif sink.closed:
                    return
                else:
                    await feed.wake.wait()
                    feed.wake.clear()
        finally:
            sink.close_feed(feed)

    def stats(self) -> Dict[str, object]:
        stats = self._cluster.stats()
        stats["gateway_state"] = self._state
        stats["pending_futures"] = 0 if self._registry is None else self._registry.pending_count
        stats["resolved_keys"] = 0 if self._registry is None else self._registry.resolved_count
        stats["decision_streams"] = 0 if self._sink is None else self._sink.num_feeds
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

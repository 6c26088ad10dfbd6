"""Decision sinks: push-based delivery targets for emitted decisions.

The pull API hands decisions back as returned lists; sinks *push* them to
subscribers the moment the serving layer publishes them.  A sink is anything
implementing :class:`DecisionSink` — ``publish`` one decision (plus the
``publish_all`` batch form) and an idempotent ``close``.  Subscribe sinks on
a :class:`~repro.serving.cluster.ServingCluster` and every decision the
cluster emits is delivered exactly once per subscriber, in the exact order
of the returned-list API.  A consumer that wants one shard's decisions
filters on ``StreamDecision.shard_id``.

Ordering and threading contract
-------------------------------
Publication is *journal-then-publish*: drain rounds collect their emissions
and publish them as ordered batches.

* Submission-path rounds (``auto_drain`` triggers, full-queue
  backpressure, the async gateway's round steps) publish **on the shard's
  pinned execution context**, right after the round completes — under the
  thread executor that is the shard's pinned worker thread.  Rounds of one
  shard serialize on that worker, and a stream lives on exactly one shard,
  so per-stream delivery order always equals per-stream emission order,
  even with many concurrent submitters.
* Cluster-level ``drain`` / ``flush`` collect per-shard result lists
  while shards run (possibly concurrently) and publish the merged result
  at the merge point, in the same stable (shard index, round,
  intra-round) order as the returned list — so sink delivery is
  backend-deterministic: serial and thread executors deliver identical
  sequences, which the parity suite pins.

With a single-threaded caller the two paths never overlap and the full sink
stream is list-identical to the concatenated returned lists.  Under
concurrent submitters, batches from different shards may interleave (global
order is scheduling-dependent) but each stream's decisions still arrive in
order.  Sinks may therefore be invoked from worker threads: the sinks in
this module are thread-safe, and a custom sink must be too.

Fault isolation: subscriber code runs inside serving rounds, so the hub
(:class:`FanOutSink`) guarantees a raising child never poisons a round or
its sibling subscribers — failures are swallowed per child, counted, and a
child failing enough consecutive publishes is quarantined
(auto-unsubscribed).  Returned decisions are never affected by sink
failures; see :mod:`repro.serving.supervisor` for the wider failure model.

Snapshots and restores do not touch sinks: delivery is not serving state,
so a restore never rescinds (or re-fires on its own) anything already
published — but *replaying* events after a restore re-emits the replayed
decisions, and subscribers see those emissions again, exactly as a
returned-list caller sees the replayed lists.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.serving.cluster import StreamDecision

__all__ = [
    "DecisionSink",
    "BufferedSink",
    "FanOutSink",
    "AsyncQueueSink",
]

#: How long a bounded :class:`AsyncQueueSink` publish may stay blocked on a
#: full queue before it raises instead of hanging the publishing thread.
PUT_TIMEOUT_S = 30.0


class DecisionSink:
    """Delivery target for pushed decisions (the subscription contract).

    Implementations must tolerate ``publish`` being invoked from shard
    worker threads (see the module docstring's ordering contract) and must
    treat ``close`` as idempotent.
    """

    def publish(self, decision: "StreamDecision") -> None:
        """Deliver one decision."""
        raise NotImplementedError

    def publish_all(self, decisions: Sequence["StreamDecision"]) -> None:
        """Deliver an ordered batch (default: one ``publish`` per decision)."""
        for decision in decisions:
            self.publish(decision)

    def close(self) -> None:
        """Release resources / signal end-of-stream.  Idempotent no-op here."""


class BufferedSink(DecisionSink):
    """Bounded (or unbounded) FIFO buffering of published decisions.

    The deployment-shaped subscriber: publishers append, a consumer
    periodically :meth:`take`\\ s the accumulated batch.  A bounded buffer
    sheds its *oldest* entries on overflow (newest-first retention matches
    the serving layer's freshness bias) and counts what it dropped.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        if maxlen is not None and maxlen <= 0:
            raise ValueError("maxlen must be positive (or None for unbounded)")
        self.maxlen = maxlen
        self._buffer: Deque["StreamDecision"] = deque()
        self._lock = threading.Lock()
        #: Decisions evicted by overflow since construction (or last reset
        #: via ``take(reset_dropped=True)``).
        self.dropped = 0

    def publish(self, decision: "StreamDecision") -> None:
        with self._lock:
            if self.maxlen is not None and len(self._buffer) >= self.maxlen:
                self._buffer.popleft()
                self.dropped += 1
            self._buffer.append(decision)

    def publish_all(self, decisions: Sequence["StreamDecision"]) -> None:
        if not decisions:
            return
        with self._lock:
            for decision in decisions:
                if self.maxlen is not None and len(self._buffer) >= self.maxlen:
                    self._buffer.popleft()
                    self.dropped += 1
                self._buffer.append(decision)

    def take(self, reset_dropped: bool = False) -> List["StreamDecision"]:
        """Remove and return everything buffered so far, in delivery order."""
        with self._lock:
            batch = list(self._buffer)
            self._buffer.clear()
            if reset_dropped:
                self.dropped = 0
        return batch

    def peek(self) -> List["StreamDecision"]:
        """A copy of the buffered decisions without consuming them."""
        with self._lock:
            return list(self._buffer)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


class FanOutSink(DecisionSink):
    """Deliver every decision to each of a mutable set of child sinks.

    This is the subscription hub the cluster uses internally: subscribers
    are added/removed at runtime, and each published decision reaches every
    child in subscription order.  Publishing iterates a snapshot, so a
    subscriber list mutated mid-publish never corrupts delivery (the change
    applies from the next publish on).

    Fault isolation: a child sink that raises never poisons the publish — the
    exception is swallowed (counted in ``publish_errors``), delivery to that
    child stops for the current batch, and every *other* child still receives
    the full batch.  A child that fails ``quarantine_after`` consecutive
    publish calls is quarantined: auto-unsubscribed and parked in
    :attr:`quarantined` (the cluster surfaces the count in
    ``stats()["health"]``).  Any successful publish resets that child's
    consecutive-failure count.  ``quarantine_after=None`` disables
    quarantining (failures are still isolated and counted).
    """

    def __init__(
        self,
        sinks: Iterable[DecisionSink] = (),
        quarantine_after: Optional[int] = 3,
    ) -> None:
        if quarantine_after is not None and quarantine_after <= 0:
            raise ValueError("quarantine_after must be positive (or None)")
        self._sinks: List[DecisionSink] = list(sinks)
        self._lock = threading.Lock()
        self.quarantine_after = quarantine_after
        #: Publish calls that raised, across all children, since construction.
        self.publish_errors = 0
        #: Children auto-unsubscribed after ``quarantine_after`` consecutive
        #: failing publish calls, in quarantine order.
        self.quarantined: List[DecisionSink] = []
        #: Consecutive failing publish calls per live child (by identity).
        self._consecutive: Dict[int, int] = {}

    def add(self, sink: DecisionSink) -> DecisionSink:
        """Subscribe a child sink; returns it (for unsubscribe bookkeeping)."""
        if not isinstance(sink, DecisionSink):
            raise TypeError("sink must implement DecisionSink")
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove(self, sink: DecisionSink) -> bool:
        """Unsubscribe a child sink; False when it was not subscribed."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                return False
            self._consecutive.pop(id(sink), None)
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._sinks)

    def _snapshot(self) -> List[DecisionSink]:
        with self._lock:
            return list(self._sinks)

    def _note_outcome(self, sink: DecisionSink, failed: bool) -> None:
        """Fold one child publish outcome into the quarantine bookkeeping."""
        with self._lock:
            if not failed:
                self._consecutive.pop(id(sink), None)
                return
            self.publish_errors += 1
            count = self._consecutive.get(id(sink), 0) + 1
            self._consecutive[id(sink)] = count
            if self.quarantine_after is not None and count >= self.quarantine_after:
                try:
                    self._sinks.remove(sink)
                except ValueError:
                    return  # concurrently unsubscribed
                self._consecutive.pop(id(sink), None)
                self.quarantined.append(sink)

    def publish(self, decision: "StreamDecision") -> None:
        for sink in self._snapshot():
            try:
                sink.publish(decision)
            except Exception:
                self._note_outcome(sink, failed=True)
            else:
                self._note_outcome(sink, failed=False)

    def publish_all(self, decisions: Sequence["StreamDecision"]) -> None:
        if not decisions:
            return
        for sink in self._snapshot():
            try:
                sink.publish_all(decisions)
            except Exception:
                # The child loses the rest of this batch only; siblings are
                # untouched and the serving round never sees the error.
                self._note_outcome(sink, failed=True)
            else:
                self._note_outcome(sink, failed=False)

    def delivery_health(self) -> Dict[str, int]:
        """Lock-consistent ``{quarantined, publish_errors}`` counts.

        The health-view accessor: worker threads may be appending to the
        quarantine list via ``_note_outcome`` concurrently, so readers take
        the sink lock instead of touching the attributes directly.
        """
        with self._lock:
            return {
                "quarantined": len(self.quarantined),
                "publish_errors": self.publish_errors,
            }

    def close(self) -> None:
        # Snapshot live + quarantined children under the lock: publishes on
        # worker threads may be quarantining (appending) concurrently.
        with self._lock:
            children = list(self._sinks) + list(self.quarantined)
        for sink in children:
            try:
                sink.close()
            except Exception:
                pass  # closing is best-effort; a broken child stays broken


class AsyncQueueSink(DecisionSink):
    """Bridge published decisions into an :class:`asyncio.Queue`.

    Built for the HTTP tier's ``/v1/decisions`` push stream
    (:class:`~repro.serving.net.server.ServingHTTPServer`): rounds publish
    from plain threads, consumers ``await queue.get()`` on the event loop.
    Delivery is loop-thread-safe:

    * unbounded queue — ``loop.call_soon_threadsafe(put_nowait)``: the
      publisher never blocks;
    * bounded queue — the publishing thread blocks in
      ``run_coroutine_threadsafe(queue.put(...))`` until the consumer makes
      room: *backpressure propagates to the serving layer*.  A bounded sink
      therefore requires a concurrently running consumer task; publishing
      from the loop thread itself would deadlock on a full queue and is
      rejected, and a publish that stays blocked longer than
      :data:`PUT_TIMEOUT_S` (consumer task died or stopped consuming) raises
      instead of hanging the shard worker forever.
    """

    def __init__(self, queue: "asyncio.Queue", loop: asyncio.AbstractEventLoop) -> None:
        self._queue = queue
        self._loop = loop
        self._closed = False

    @property
    def queue(self) -> "asyncio.Queue":
        return self._queue

    def publish(self, decision: "StreamDecision") -> None:
        if self._closed or self._loop.is_closed():
            # A sink whose loop is gone (an abandoned gateway that was never
            # closed) drops deliveries instead of crashing the serving layer.
            return
        bounded = self._queue.maxsize > 0
        on_loop_thread = False
        try:
            on_loop_thread = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            pass
        if not bounded:
            if on_loop_thread:
                self._queue.put_nowait(decision)
            else:
                self._loop.call_soon_threadsafe(self._queue.put_nowait, decision)
            return
        if on_loop_thread:
            # Blocking the loop on its own consumer is a guaranteed deadlock.
            raise RuntimeError(
                "bounded AsyncQueueSink cannot publish from the event-loop "
                "thread; run the serving call in an executor"
            )
        future = asyncio.run_coroutine_threadsafe(self._queue.put(decision), self._loop)
        try:
            future.result(timeout=PUT_TIMEOUT_S)
        # concurrent.futures.TimeoutError: an alias of the builtin only
        # since 3.11 — name the futures flavour so older runtimes match too.
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise RuntimeError(
                f"bounded AsyncQueueSink publish stalled for "
                f"{PUT_TIMEOUT_S}s — the consumer task is not draining "
                f"the decision queue (dead or stopped consuming)"
            ) from None

    def close(self) -> None:
        self._closed = True

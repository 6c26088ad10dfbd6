"""Sharded multi-stream serving: shard workers and the cluster front-end.

This module scales the per-stream :class:`~repro.serving.engine.StreamSession`
to many concurrent streams:

* :class:`ShardWorker` owns a dictionary of sessions keyed by stream id plus
  a bounded FIFO arrival queue.  Draining happens in *rounds*: each round
  dequeues at most ``batch_size`` arrivals, at most one per stream (a
  session's next mask row depends on its previous append having completed),
  runs every session's bookkeeping phase, then encodes all still-pending
  rows in **one cross-stream batch** via
  :func:`repro.core.incremental.append_batch` — one ``(B, d_model)`` GEMM per
  projection/FFN and one batched attention einsum per block instead of ``B``
  separate O(W·d) GEMV chains (a round with one pending row encodes it
  alone) — and finally lets each session take its halting decisions.
  Streams are independent, so the batch is pure
  math-level restructuring: per-stream decisions are identical to feeding a
  dedicated single-stream engine (the cluster parity suite pins this for
  evictions, flush and snapshot/restore alike).

* :class:`ServingCluster` hash-routes stream ids to shards with the same
  process-independent CRC32 bucket the rotary membership embedding uses
  (:func:`repro.core.embeddings.stable_key_slot` — deterministic across runs
  and machines), answers a full shard queue with backpressure (one round of
  that shard runs to make room, then the arrival is admitted), and exposes
  the deployment API: :meth:`ServingCluster.submit`,
  :meth:`~ServingCluster.drain`, :meth:`~ServingCluster.flush`,
  :meth:`~ServingCluster.flush_stream`, :meth:`~ServingCluster.snapshot`
  and :meth:`~ServingCluster.restore`.

Execution backends (:mod:`repro.serving.parallel`): with
``ClusterConfig.executor="serial"`` every shard runs inline on the calling
thread (the reference behaviour).  With ``executor="thread"`` the cluster
owns a persistent pool of **one pinned worker thread per shard**:
cluster-level :meth:`~ServingCluster.drain` and
:meth:`~ServingCluster.flush` fan their per-shard work out across the pool
and run shards concurrently (numpy releases the GIL inside the batched
GEMMs), while per-shard results are
merged back in stable (shard index, round, intra-round) order — the emitted
decision sequence is identical to the serial backend's, which the parity
suite pins.  Submission-path rounds (``auto_drain`` triggers, full-queue
backpressure and the async gateway's continuous-batching steps,
:meth:`~ServingCluster.serve_shard` / :meth:`~ServingCluster.serve_queued`)
are dispatched to the owning shard's pinned worker and waited on like the
fan-outs, so session state never crosses threads even on the submit path.
Every round is at most ``batch_size`` arrivals wide on either backend.

Push-based delivery (:mod:`repro.serving.results`,
:mod:`repro.serving.sinks`): :meth:`ServingCluster.submit` returns a
:class:`~repro.serving.results.SubmitResult` that makes every admission
outcome explicit (``accepted`` / ``decided`` / ``degraded`` plus shard and
queue-depth telemetry, and the emitted ``decisions``).  Subscribed
:class:`~repro.serving.sinks.DecisionSink` instances receive every emitted
decision as it is published: submission-path rounds publish on the shard's
pinned execution context (per-stream order is exact even with concurrent
submitters), while cluster-level ``drain`` / ``flush`` collect per-shard
emissions and publish the merged result in the same stable (shard,
round, intra-round) order as the returned list — sink delivery is
backend-deterministic and, for a single-threaded caller, list-identical to
the pull API (the parity suite pins both).

Fault tolerance (:mod:`repro.serving.supervisor`,
:mod:`repro.serving.faults`): every shard runs under a
:class:`~repro.serving.supervisor.ShardSupervisor` — periodic checkpoints
(shard-granular deep copies sharing the model, plus an admission journal),
automatic crash recovery (an exception escaping a drain round restores the
last checkpoint and requeues every journaled arrival except the dead
round's), and a circuit breaker whose open state degrades submissions
(``status="degraded"``, not admitted) instead of failing them.  A round
that wedges without raising is waited for, on either backend.  Sink
subscribers are fault-isolated and quarantined after consecutive publish
failures.
``stats()["health"]`` (or :meth:`ServingCluster.health`) reports all of it.
``ClusterConfig.faults`` accepts a seeded
:class:`~repro.serving.faults.FaultInjector` so every one of these paths is
deterministically testable.

Lifecycle: a cluster is born ``running``, :meth:`ServingCluster.shutdown`
moves it through ``draining`` (a final flush, with deliveries published)
into ``closed``; :meth:`ServingCluster.close` releases the worker pool and
closes directly.  Submissions require a running cluster; drains and flushes
work while draining; everything but :meth:`ServingCluster.stats` is rejected
once closed.

Snapshots are deep copies of every shard's sessions, queues and counters
that *share* the (immutable at serving time) model weights: taking one does
not stop the cluster, restoring one rewinds it bit-for-bit, and a snapshot
can be restored any number of times — the basis for failover and shard
migration experiments.  Sink subscriptions, pending deliveries and
throughput meters are delivery-time constructs, not serving state: a
restore neither rescinds nor re-fires anything already published
(replaying events after a restore re-emits the replayed decisions to
subscribers, exactly as the returned-list API hands the caller the replayed
lists).
"""

from __future__ import annotations

import copy
import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.embeddings import stable_key_slot
from repro.core.incremental import append_batch
from repro.data.items import ValueSpec
from repro.data.stream import StreamEvent
from repro.serving.engine import Decision, EngineConfig, StreamSession, require_ints
from repro.serving.faults import FaultInjector
from repro.serving.monitoring import ShardMonitor, ThroughputMeter
from repro.serving.results import ConsumeSummary, SubmitResult
from repro.serving.sinks import DecisionSink, FanOutSink
from repro.serving.supervisor import ShardSupervisor, SupervisorConfig
from repro.serving.parallel import (
    JobHandle,
    ShardExecutor,
    make_executor,
)


class OutOfOrderEventError(ValueError):
    """Raised on submit for an arrival older than its stream's newest item.

    A stream's window accepts items only in chronological order, so an
    older item would fail the drain round that serves it, and the shard's
    recovery would lose every arrival that round held.  Admission refuses
    it instead, before anything is enqueued or journaled.  "Newest" counts
    every admitted item of the stream, queued or served; an equal time is
    legal.
    """


@dataclass(frozen=True)
class StreamDecision:
    """One session decision, attributed to its stream and shard.

    Stream ids are the cluster's routing unit; two different streams may
    legitimately use the same item keys, so cluster-level consumers need the
    ``stream_id`` to disambiguate what a bare :class:`Decision` cannot.
    """

    stream_id: Hashable
    shard_id: int
    decision: Decision


@dataclass
class ClusterConfig:
    """Configuration of the sharded serving cluster.

    Attributes
    ----------
    num_shards:
        Number of shard workers; stream ids are hash-routed across them.
    batch_size:
        Maximum arrivals drained per round — the cap on the cross-stream
        encoding batch.  ``1`` degenerates to the serial per-arrival loop.
    max_queue:
        Bound of each shard's arrival queue.  An arrival that finds its
        queue at this depth waits for one round of that shard
        (:meth:`ServingCluster.serve_shard`), which makes room, and is then
        admitted: backpressure by doing the work now.
    auto_drain:
        Serve arrivals without an explicit drain (the default).  The
        synchronous :meth:`ServingCluster.submit` runs a round whenever a
        shard's queue reaches ``batch_size``; the async gateway serves
        continuously instead, so each arrival joins its shard's next round
        whatever the queue depth.  When off, arrivals only queue and the
        caller schedules :meth:`ServingCluster.drain` explicitly — the
        pattern that lets the thread executor overlap shards.
    executor:
        Execution backend: ``"serial"`` runs every shard inline on the
        caller (the reference), ``"thread"`` pins each shard to its own
        worker thread of a persistent pool and runs cluster-level drain /
        flush rounds concurrently across shards.
    supervision:
        Fault-tolerance knobs (:class:`~repro.serving.supervisor.SupervisorConfig`):
        per-shard checkpoint cadence, circuit-breaker thresholds and
        backoff, and sink quarantine.  Every cluster is supervised; the
        defaults checkpoint every 64 rounds.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` wired into the
        serving boundaries — testing/chaos only; ``None`` (default) injects
        nothing.
    engine:
        Per-stream :class:`~repro.serving.engine.EngineConfig` shared by
        every session the cluster creates.
    """

    num_shards: int = 1
    batch_size: int = 8
    max_queue: int = 1024
    auto_drain: bool = True
    executor: str = "serial"
    supervision: SupervisorConfig = field(default_factory=SupervisorConfig)
    faults: Optional[FaultInjector] = None
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        require_ints(self, "num_shards", "batch_size", "max_queue")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be a positive int")
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.executor not in ("serial", "thread"):
            raise ValueError(f"unknown executor backend {self.executor!r}")


class ShardWorker:
    """Many stream sessions plus the bounded queue feeding them.

    Session state is single-threaded and deterministic: rounds process
    queued arrivals in FIFO order (restricted to the first pending arrival
    of each stream), so for a fixed submission sequence the emitted
    decisions are a fixed sequence too.  Under the thread executor all
    rounds run on the shard's pinned worker thread (callers dispatch and
    wait), so sessions, monitors and counters are still touched by exactly
    one thread; only the arrival queue is shared with submitters and is
    guarded by a lock.
    """

    def __init__(
        self,
        shard_id: int,
        model,
        spec: ValueSpec,
        config: ClusterConfig,
        executor: ShardExecutor,
    ) -> None:
        self.shard_id = shard_id
        self.model = model
        self.spec = spec
        self.config = config
        self.sessions: Dict[Hashable, StreamSession] = {}
        #: Arrival queue, organised for O(batch·log S) rounds: one FIFO
        #: sub-queue of ``(seq, event)`` per stream plus a min-heap of
        #: ``(head seq, stream_id)`` over the streams with pending arrivals.
        #: ``seq`` is a per-shard arrival counter, so the heap yields streams
        #: in the order of their oldest queued event — exactly the global
        #: FIFO-of-distinct-streams order a flat queue scan would produce,
        #: without re-scanning held-back same-stream followers every round.
        self._pending: Dict[Hashable, Deque[Tuple[int, StreamEvent]]] = {}
        self._ready: List[Tuple[int, Hashable]] = []
        self._queue_length = 0
        self._seq = 0
        #: Newest item time admitted per stream, queued or served (see
        #: :class:`OutOfOrderEventError`).  Kept under ``self._lock`` and
        #: rebuilt with the queue from the sessions' windows.
        self._newest_time: Dict[Hashable, float] = {}
        #: Guards the arrival queue (submitters enqueue from the caller
        #: thread while the pinned worker dequeues rounds).
        self._lock = threading.Lock()
        #: Execution backend (shared by every shard of the cluster).
        self._executor = executor
        #: Optional chaos hook (``ClusterConfig.faults``).
        self.faults: Optional[FaultInjector] = config.faults
        #: Every arrival admitted since the supervisor's last checkpoint —
        #: the redo log a crash recovery replays on top of the checkpoint.
        #: Appended under ``self._lock`` on the submit path (only while
        #: periodic checkpointing is on), cleared atomically with each
        #: checkpoint's queue capture.
        self._journal: List[Tuple[Hashable, StreamEvent]] = []
        #: Arrivals dequeued by the currently running round; non-empty only
        #: between a round's dequeue and its successful completion, so after
        #: a crash it holds exactly the entries the dead round consumed (the
        #: recovery's *lost* set).
        self._round_entries: List[Tuple[Hashable, StreamEvent]] = []
        #: Set by the owning cluster so submission-path rounds can publish
        #: to cluster-level subscribers from the pinned execution context.
        self._cluster_publish: Optional[Callable[[List[StreamDecision]], None]] = None
        #: Drain-round telemetry (queue depth + round latency histograms).
        self.monitor = ShardMonitor()
        #: Cross-stream batching counters (for the throughput bench/monitor).
        self.batch_rounds = 0
        self.batched_rows = 0
        self.drained = 0
        #: Breaker, checkpoints and crash recovery
        #: (:mod:`repro.serving.supervisor`).  Built last: its birth
        #: checkpoint captures the rest of the (empty) shard.
        self.supervisor = ShardSupervisor(self, config.supervision)

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def session(self, stream_id: Hashable) -> StreamSession:
        """The stream's session, created on first use."""
        session = self.sessions.get(stream_id)
        if session is None:
            session = StreamSession(self.model, self.spec, self.config.engine)
            self.sessions[stream_id] = session
        return session

    def _shared_refs(self) -> Tuple[object, ...]:
        """The objects sessions share with the cluster (never serialized)."""
        return (self.model, self.spec, self.config, self.config.engine)

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queue_length

    def _run_pinned(self, fn):
        """Run shard work with shard affinity on the execution backend."""
        return self._executor.run(self.shard_id, fn)

    def _fire_fault(self, site: str) -> None:
        """Fire the injector (if any) at a serving boundary."""
        if self.faults is not None:
            self.faults.fire(site, self.shard_id)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def _enqueue_locked(
        self, stream_id: Hashable, event: StreamEvent, journal: bool = True
    ) -> None:
        queue = self._pending.get(stream_id)
        if queue is None:
            queue = self._pending[stream_id] = deque()
        if not queue:
            heapq.heappush(self._ready, (self._seq, stream_id))
        queue.append((self._seq, event))
        self._seq += 1
        self._queue_length += 1
        self._newest_time[stream_id] = event.item.time
        # Journal fresh admissions only: checkpoint/restore queue loads are
        # already covered by the checkpoint itself.
        if journal and self.config.supervision.checkpoint.every_rounds > 0:
            self._journal.append((stream_id, event))

    def _pending_entries_locked(self) -> List[Tuple[Hashable, StreamEvent]]:
        entries = [
            (seq, stream_id, event)
            for stream_id, queue in self._pending.items()
            for seq, event in queue
        ]
        entries.sort(key=lambda entry: entry[0])
        return [(stream_id, event) for _, stream_id, event in entries]

    def pending_entries(self) -> List[Tuple[Hashable, StreamEvent]]:
        """Every queued arrival in global FIFO order (snapshot format)."""
        with self._lock:
            return self._pending_entries_locked()

    def _reload_queue_locked(self, entries: List[Tuple[Hashable, StreamEvent]]) -> None:
        """Replace the queue with ``entries`` (global FIFO order).

        The per-stream newest admitted times restart from the sessions'
        windows and advance over the queued events, so rewinding the
        sessions rewinds admission too.
        """
        self._pending = {}
        self._ready = []
        self._queue_length = 0
        self._seq = 0
        self._newest_time = {
            stream_id: session.window.newest_time
            for stream_id, session in self.sessions.items()
        }
        for stream_id, event in entries:
            self._enqueue_locked(stream_id, event, journal=False)

    def load_pending(self, entries: List[Tuple[Hashable, StreamEvent]]) -> None:
        """Replace the queue contents (``entries`` in global FIFO order)."""
        with self._lock:
            self._reload_queue_locked(entries)

    # ------------------------------------------------------------------ #
    # live stream migration (extract / install one stream)
    # ------------------------------------------------------------------ #
    def _extract_pending_locked(self, stream_id: Hashable) -> List[StreamEvent]:
        """Remove one stream's queued arrivals; FIFO order preserved."""
        queue = self._pending.pop(stream_id, None)
        self._newest_time.pop(stream_id, None)
        if queue is None:
            events: List[StreamEvent] = []
        else:
            events = [event for _, event in queue]
            self._queue_length -= len(queue)
            self._ready = [entry for entry in self._ready if entry[1] != stream_id]
            heapq.heapify(self._ready)
        # The stream's journaled admissions leave with it (they are exactly
        # its extracted pending entries); the follow-up checkpoint restores
        # the checkpoint-plus-journal invariant for the remaining streams.
        self._journal = [entry for entry in self._journal if entry[0] != stream_id]
        return events

    def extract_stream(
        self, stream_id: Hashable
    ) -> Tuple[Optional[StreamSession], List[StreamEvent]]:
        """Detach one stream from this shard: its session + queued arrivals.

        The session comes back as a *detached* deep copy (shared
        model/spec/config severed — portable across clusters and pickle
        boundaries), or ``None`` if the stream has no session yet.  Runs on
        the shard's pinned execution context, so it serializes against
        in-flight rounds; the supervisor re-checkpoints afterwards so crash
        recovery can never resurrect the departed stream.
        """

        def op() -> Tuple[Optional[StreamSession], List[StreamEvent]]:
            with self._lock:
                pending = self._extract_pending_locked(stream_id)
            session = self.sessions.pop(stream_id, None)
            if session is not None:
                session = _detached_sessions_copy(
                    {stream_id: session}, self._shared_refs()
                )[stream_id]
            return session, pending

        session, pending = self._run_pinned(op)
        self.supervisor.checkpoint_now()
        return session, pending

    def install_stream(
        self,
        stream_id: Hashable,
        session: Optional[StreamSession],
        pending: List[StreamEvent],
    ) -> None:
        """Attach an extracted stream to this shard (inverse of extract).

        The incoming session is deep-copied (the caller's
        :class:`StreamState` stays pristine and re-installable) and pointed
        at this shard's live model/spec/config; queued arrivals are
        re-enqueued in their original FIFO order.  Re-checkpoints so the
        arrival lands inside the supervisor's recovery window.
        """

        def op() -> None:
            if session is not None:
                installed = copy.deepcopy(
                    {stream_id: session}, {id(obj): None for obj in self._shared_refs()}
                )[stream_id]
                _attach_shared_refs(
                    {stream_id: installed}, self.model, self.spec, self.config.engine
                )
                self.sessions[stream_id] = installed
            with self._lock:
                if session is None:
                    self._newest_time.pop(stream_id, None)
                else:
                    self._newest_time[stream_id] = session.window.newest_time
                for event in pending:
                    self._enqueue_locked(stream_id, event, journal=False)

        self._run_pinned(op)
        self.supervisor.checkpoint_now()

    def stream_ids(self) -> List[Hashable]:
        """Ids of every stream this shard holds (session or queued arrival)."""
        ids = set(self.sessions.keys())
        with self._lock:
            ids.update(self._pending.keys())
        return sorted(ids, key=repr)

    # ------------------------------------------------------------------ #
    # checkpointing / crash recovery (driven by the shard supervisor)
    # ------------------------------------------------------------------ #
    def _shard_memo(self) -> Dict[int, object]:
        """Deepcopy memo sharing the immutable-at-serving-time objects."""
        return {id(obj): obj for obj in self._shared_refs()}

    def _capture_checkpoint(self) -> Dict[str, object]:
        """Deep-copy this shard's serving state; atomically reset the journal.

        The queue read and the journal clear happen under one lock hold, so
        the invariant *checkpoint queue + journal ≡ all unprocessed
        arrivals* holds at every instant — a submit landing during the
        capture is either in the captured queue or in the fresh journal,
        never neither.  Sessions and counters are only mutated by rounds,
        which are serialized against checkpoints by the supervisor, so they
        are copied outside the lock.  Queue entries are immutable events and
        are shared, not copied.
        """
        with self._lock:
            queue = self._pending_entries_locked()
            self._journal.clear()
        state = copy.deepcopy(
            {
                "sessions": self.sessions,
                "counters": {name: getattr(self, name) for name in _SHARD_COUNTERS},
                "monitor": self.monitor,
            },
            self._shard_memo(),
        )
        state["queue"] = queue
        return state

    def _restore_from_checkpoint(
        self,
        state: Dict[str, object],
        lost: List[Tuple[Hashable, StreamEvent]],
    ) -> List[Tuple[Hashable, StreamEvent]]:
        """Install a checkpoint; rebuild the queue around the crash.

        Sessions, counters and the monitor are replaced with fresh deep
        copies of the checkpoint (the checkpoint itself stays pristine and
        reusable — and a round still running under the pre-recovery epoch
        holds references only to the orphaned pre-restore sessions; its
        late-bound reads of the live attributes are fenced off by the epoch
        gates in :meth:`_drain_round`).  The arrival queue is
        rebuilt as ``checkpoint queue + journal − lost`` — every admission
        the checkpoint predates is replayed except the entries the dead
        round had already consumed, each removed once by value.  Returns the
        rebuilt entry list so the supervisor can refresh its checkpoint's
        queue without a second sessions copy.
        """
        restored = copy.deepcopy(
            {
                "sessions": state["sessions"],
                "counters": state["counters"],
                "monitor": state["monitor"],
            },
            self._shard_memo(),
        )
        self.sessions = restored["sessions"]
        for name, value in restored["counters"].items():
            setattr(self, name, value)
        self.monitor = restored["monitor"]
        with self._lock:
            rebuilt = list(state["queue"]) + list(self._journal)
            for entry in lost:
                try:
                    rebuilt.remove(entry)
                except ValueError:
                    pass  # lost entry predates the checkpoint window
            self._journal.clear()
            self._reload_queue_locked(rebuilt)
        self._round_entries = []
        return rebuilt

    def _take_round_entries(self) -> List[Tuple[Hashable, StreamEvent]]:
        """Claim the arrivals consumed by a round that died (the lost set)."""
        entries, self._round_entries = self._round_entries, []
        return list(entries)

    # ------------------------------------------------------------------ #
    # push delivery
    # ------------------------------------------------------------------ #
    def _publish(self, decisions: List[StreamDecision]) -> None:
        """Push an ordered emission batch to the cluster's subscribers."""
        if self._cluster_publish is not None:
            self._cluster_publish(decisions)

    def _drain_round_published(self) -> List[StreamDecision]:
        """One drain round whose emissions are published before returning.

        Runs on the shard's pinned execution context (the synchronous
        submission path and the async gateway's round thread dispatch it
        through :meth:`ServingCluster.serve_shard` and
        :meth:`ServingCluster.serve_queued`), so for any one shard the
        publish order equals the round order — per-stream delivery order is
        exact even when many threads submit concurrently, and for a
        single-threaded caller it is identical to the returned lists.
        """
        emitted = self._supervised_round()
        self._publish(emitted)
        return emitted

    def _supervised_round(self) -> List[StreamDecision]:
        """One drain round under the shard supervisor's failure handling.

        A clean round reports success (which also drives the periodic
        checkpoint cadence).  A round that raises reports the failure with
        the arrivals it had dequeued — the supervisor trips the breaker,
        restores the last checkpoint and requeues everything except those
        lost arrivals — and the caller sees an empty emission list instead
        of the exception.  Reports carry the epoch the round started under,
        so a round that finishes after a recovery or a cluster restore
        replaced the shard's state cannot corrupt the new state's
        bookkeeping, and a round whose report is stale also yields no
        emissions (they were computed against replaced state).
        """
        sup = self.supervisor
        epoch = sup.epoch
        try:
            emitted = self._drain_round(epoch)
        except Exception as error:
            sup.on_round_failure(error, epoch, self._take_round_entries())
            return []
        if not sup.note_round_success(epoch):
            return []
        return emitted

    def submit(self, stream_id: Hashable, event: StreamEvent) -> Optional[SubmitResult]:
        """Admit one arrival; never runs a round.

        Admission and the enqueue happen under the queue lock on the
        calling thread, so the async gateway admits on its event loop.
        Returns the explicit outcome (``accepted`` when enqueued), or
        ``None`` when the queue is full: the caller then serves one round
        of this shard (a full queue is non-empty, so the round frees at
        least one slot) and submits again.  A round that fails frees
        nothing, because recovery requeues the survivors, so once the
        breaker opens the retry degrades instead of spinning.

        Degradation: while the shard's circuit breaker is open the arrival
        is not admitted at all and the outcome is ``status="degraded"``,
        counted in the supervisor's ``degraded_submits``.  A breaker whose
        backoff has elapsed admits normally — the next round is the
        half-open probe.

        An arrival older than the stream's newest admitted item raises
        :class:`OutOfOrderEventError` and is neither enqueued nor journaled.
        """
        if not self.supervisor.submission_allowed():
            self.supervisor.note_degraded_submit()
            return SubmitResult(
                status="degraded",
                stream_id=stream_id,
                shard_id=self.shard_id,
                queue_depth=self.queue_depth,
            )
        with self._lock:
            newest = self._newest_time.get(stream_id, float("-inf"))
            if event.item.time < newest:
                raise OutOfOrderEventError(
                    f"stream {stream_id!r}: arrival at time {event.item.time} "
                    f"is older than the stream's newest admitted item "
                    f"(time {newest})"
                )
            if self._queue_length >= self.config.max_queue:
                return None
            self._enqueue_locked(stream_id, event)
            return SubmitResult(
                status="accepted",
                stream_id=stream_id,
                shard_id=self.shard_id,
                queue_depth=self._queue_length,
            )

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #
    def _drain_inline(self) -> List[StreamDecision]:
        """Serve rounds until the queue is empty, running with affinity.

        The shard's part of :meth:`ServingCluster.drain` and of the
        flush-like calls.

        The loop stops early once the shard's breaker opens (recovery
        requeues a failed round's surviving arrivals, so without the gate a
        persistently failing shard would loop forever); the backlog then
        waits for a later drain's half-open probe.
        """
        emitted: List[StreamDecision] = []
        sup = self.supervisor
        while self.queue_depth:
            if not sup.allow_round():
                break
            emitted.extend(self._supervised_round())
        return emitted

    def _drain_round(self, epoch: int) -> List[StreamDecision]:
        """Dequeue one round of arrivals (one per stream) and serve them.

        Streams enter the round in the order of their oldest queued arrival;
        same-stream followers stay queued for a later round, because a
        session can only encode one pending arrival at a time.  The round
        takes at most ``batch_size`` arrivals — width only schedules work:
        it never changes which decisions are emitted or any stream's
        decision sequence (it does pick how decisions of *different*
        streams interleave).  The encodable rows of the round run as one
        cross-stream batch.

        ``epoch`` is the supervisor epoch the round started under (read by
        the supervised caller).  A waiter-side recovery or a cluster
        restore bumps the epoch while the round runs, so the round is
        epoch-gated at its two slow boundaries: after the pre-dequeue fault
        site (a round outrun there returns before touching the new queue)
        and before the bookkeeping tail (a round outrun mid-encode has
        mutated only the orphaned pre-restore sessions — the live counters,
        monitor and lost-entry tracking stay untouched).
        """
        start = time.perf_counter()
        sup = self.supervisor
        # Pre-dequeue boundary: a fault here fails the round with no
        # arrivals consumed (recovery has an empty lost set).
        self._fire_fault("shard-round")
        if sup.epoch != epoch:
            # The shard's state was replaced during the pre-dequeue
            # boundary: the queue is the new state's — consume nothing.
            return []
        self._round_entries = []
        width = self.config.batch_size
        round_entries: List[Tuple[Hashable, StreamEvent]] = []
        with self._lock:
            depth_before = self._queue_length
            while self._ready and len(round_entries) < width:
                _, stream_id = heapq.heappop(self._ready)
                _, event = self._pending[stream_id].popleft()
                round_entries.append((stream_id, event))
            for stream_id, _ in round_entries:
                queue = self._pending[stream_id]
                if queue:
                    heapq.heappush(self._ready, (queue[0][0], stream_id))
                else:
                    del self._pending[stream_id]
            self._queue_length -= len(round_entries)
        if not round_entries:
            return []
        self._round_entries = round_entries
        emitted, batched_rows = self._serve_entries(round_entries)

        if sup.epoch != epoch:
            # Outrun mid-round: the sessions above were the orphaned
            # pre-restore copies (harmless), but the counters, the monitor
            # and ``_round_entries`` are the *live* restored objects — a
            # stale tail mutating them would corrupt the new state's
            # bookkeeping (and clearing ``_round_entries`` could erase a
            # later round's lost-entry tracking).
            return []
        self.drained += len(round_entries)
        if batched_rows:
            self.batch_rounds += 1
            self.batched_rows += batched_rows
        self._round_entries = []

        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.monitor.observe_round(depth_before, len(round_entries), elapsed_ms)
        return emitted

    def _serve_entries(
        self, round_entries: List[Tuple[Hashable, StreamEvent]]
    ) -> Tuple[List[StreamDecision], int]:
        """Serve one round's dequeued arrivals against the live sessions.

        Two or more encodable rows run as one cross-stream batch with one
        batched halt product.  A lone row keeps the per-row path: its halt
        probability comes from the single-row product, which a one-row
        batched product can round differently.  Returns the emitted
        decisions and the number of rows encoded as one batch (0 when the
        round had no batch); the caller counts them only once the round
        has passed its epoch gate.
        """
        staged = [
            (stream_id, event, self.session(stream_id))
            for stream_id, event in round_entries
        ]
        appendable = [
            (session, event)
            for _, event, session in staged
            if session._ingest(event)
        ]
        # Mid-encode boundary: sessions are half-mutated (bookkeeping ran,
        # rows not appended) and the round's arrivals are consumed — the
        # worst case a checkpoint restore must undo bit-for-bit.
        self._fire_fault("session-encode")
        if len(appendable) > 1:
            representations = append_batch(
                [session._incremental for session, _ in appendable],
                [event.item for _, event in appendable],
            )
            probabilities = self.model.policy.halt_probabilities_inference(
                np.stack(representations)
            )
            for (session, _), probability in zip(appendable, probabilities):
                session._note_appended_row(probability)
            batched_rows = len(appendable)
        else:
            for session, event in appendable:
                session._append_to_cache(event)
            batched_rows = 0

        emitted: List[StreamDecision] = []
        for stream_id, _, session in staged:
            for decision in session._complete_offer():
                emitted.append(StreamDecision(stream_id, self.shard_id, decision))
        return emitted, batched_rows

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _abandon_queue(self) -> None:
        """Empty the queue into the supervisor's lost entries.

        Only a closing cluster calls it: the arrivals still queued will
        never be served, so they are counted (``lost_arrivals``) instead
        of dropped silently.
        """
        with self._lock:
            entries = self._pending_entries_locked()
            self._reload_queue_locked([])
        self.supervisor.note_lost(entries)

    def _flush_inline(self, stream_id: Optional[Hashable] = None) -> List[StreamDecision]:
        """Drain, then force-decide the undecided keys of every session, or
        of ``stream_id``'s session only.

        The whole queue drains first either way (a stream's pending
        arrivals sit behind other streams' in FIFO order), so a per-stream
        flush may return other streams' drain decisions ahead of the target
        stream's flush decisions.  When the drain leaves arrivals queued
        (the breaker opened and stopped it), deciding keys now would decide
        on a prefix of their stream, so only the drain's decisions come
        back; a later flush after the half-open probe decides them.
        """
        emitted = self._drain_inline()
        if self.queue_depth:
            return emitted
        if stream_id is None:
            sessions = self.sessions.items()
        else:
            session = self.sessions.get(stream_id)
            sessions = [] if session is None else [(stream_id, session)]
        for sid, session in sessions:
            for decision in session.flush():
                emitted.append(StreamDecision(sid, self.shard_id, decision))
        return emitted


@dataclass(frozen=True)
class ClusterSnapshot:
    """Opaque, restorable copy of a cluster's serving state.

    Holds deep copies of every shard's sessions, queue and counters (model
    weights are shared, not copied).  Treat as opaque: only
    :meth:`ServingCluster.restore` should consume it.
    """

    num_shards: int
    shard_states: List[Dict[str, object]]


@dataclass(frozen=True)
class StreamState:
    """One stream's portable serving state, detached from any cluster.

    Produced by :meth:`ServingCluster.extract_stream` and consumed by
    :meth:`ServingCluster.install_stream` — the unit of live stream
    migration between independent clusters (the
    :class:`~repro.serving.net.router.ClusterRouter` nodes).  ``session``
    is a *detached* deep copy (shared model/spec/config severed, exactly
    like a pickled checkpoint) or ``None`` when the stream had queued
    arrivals but no session yet; ``pending`` is the stream's queued
    arrivals in FIFO order.  Treat as opaque; it pickles cleanly.
    """

    stream_id: Hashable
    session: Optional[StreamSession]
    pending: Tuple[StreamEvent, ...]


#: Counter attributes snapshotted/restored per shard.
_SHARD_COUNTERS = ("batch_rounds", "batched_rows", "drained")

#: Wall-clock span (seconds) of the sliding throughput windows behind
#: ``stats()["items_per_s"]`` / ``["decisions_per_s"]``.
STATS_WINDOW_S = 60.0


def _detached_sessions_copy(
    sessions: Dict[Hashable, StreamSession],
    shared: Iterable[object],
) -> Dict[Hashable, StreamSession]:
    """Deep-copy sessions with the shared model/spec/config *detached*.

    The deepcopy memo maps every shared object to ``None``, so the copy
    carries only per-session serving state — what a migrated stream or a
    pickled snapshot must carry.  :func:`_attach_shared_refs`
    is the inverse: it points a detached copy back at live shared objects.
    """
    memo = {id(obj): None for obj in shared}
    return copy.deepcopy(sessions, memo)


def _attach_shared_refs(
    sessions: Dict[Hashable, StreamSession],
    model: object,
    spec: ValueSpec,
    engine: EngineConfig,
) -> Dict[Hashable, StreamSession]:
    """Re-point detached sessions at live shared model/spec/config objects.

    Inverse of :func:`_detached_sessions_copy`, and the repair for sessions
    whose sharing was severed by a pickle round-trip (pickle has no memo
    bridge to the live process, so each unpickled session would otherwise
    own a private weight copy — multiplying memory per shard and breaking
    atomic weight hot-swap).  Mutates in place; returns ``sessions``.
    """
    for session in sessions.values():
        session.model = model
        session.spec = spec
        session.config = engine
        if session._incremental is not None:
            session._incremental.model = model
    return sessions


class ServingCluster:
    """Hash-routed front-end over a fleet of shard workers.

    The deployment entry point for multi-stream serving: ``submit`` routes
    each arrival to its stream's shard (stable CRC32 bucketing — the same
    stream always lands on the same shard, across processes and restarts),
    shards batch-encode their queues, and ``flush`` fans out to every
    session.  The API is synchronous: every call returns with its work
    complete.  With the serial backend the work runs on the calling thread;
    with ``executor="thread"`` cluster-level drain / flush run all shards
    concurrently on the pinned worker pool and the caller waits for
    the merged, shard-ordered result — same decisions, overlapped wall
    clock.  Use :meth:`close` (or a ``with`` block) to release the pool.
    """

    #: Lifecycle states (``state`` property): ``running`` accepts
    #: submissions, ``draining`` only finishes in-flight work (drain /
    #: flush), ``closed`` rejects everything but ``stats``.
    STATES = ("running", "draining", "closed")

    def __init__(
        self, model, spec: ValueSpec, config: Optional[ClusterConfig] = None
    ) -> None:
        self.model = model
        self.spec = spec
        self.config = config or ClusterConfig()
        self.config.engine.validate_for_model(model)
        self._executor = make_executor(self.config.executor, self.config.num_shards)
        self.shards = [
            ShardWorker(index, model, spec, self.config, self._executor)
            for index in range(self.config.num_shards)
        ]
        self._state = "running"
        #: Cluster-level sink subscriptions (push delivery of every emitted
        #: decision; see :mod:`repro.serving.sinks`).  Children are
        #: fault-isolated and quarantined per the supervision config.
        self._sinks = FanOutSink(
            quarantine_after=self.config.supervision.sink_quarantine_after
        )
        #: Sliding-window throughput gauges (wall clock): admitted arrivals
        #: and published decisions.  Ticked from submit callers and shard
        #: workers alike, so both share one lock.  Cluster-global by choice:
        #: the tick is a few deque ops on the pure-Python bookkeeping path,
        #: which the GIL serializes across threads anyway — the BLAS rounds
        #: that actually overlap across shards never touch it.  If it ever
        #: shows in a profile, the escape is per-shard meters merged at
        #: stats() time.
        self._meter_lock = threading.Lock()
        # ~256 retained checkpoints per meter whatever the arrival rate:
        # ticks within window/256 of the last checkpoint coalesce into it.
        meter_granularity = STATS_WINDOW_S / 256.0
        self._items_meter = ThroughputMeter(
            window=STATS_WINDOW_S, granularity=meter_granularity
        )
        self._decisions_meter = ThroughputMeter(
            window=STATS_WINDOW_S, granularity=meter_granularity
        )
        for shard in self.shards:
            shard._cluster_publish = self._publish

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """Current lifecycle state: ``running`` / ``draining`` / ``closed``."""
        return self._state

    def _require_running(self, operation: str) -> None:
        if self._state != "running":
            raise RuntimeError(
                f"cannot {operation}: cluster is {self._state} (submissions "
                f"require a running cluster)"
            )

    def _require_open(self, operation: str) -> None:
        if self._state == "closed":
            raise RuntimeError(f"cannot {operation}: cluster is closed")

    def shutdown(self) -> List[StreamDecision]:
        """Graceful stop: drain + flush everything, then close the pool.

        Moves the cluster through ``draining`` (new submissions are rejected
        while the final flush publishes its emissions to subscribers) into
        ``closed``; returns the flush emissions.  Idempotent: a second call
        returns an empty list.

        No later call will come, so a shard whose breaker is open runs its
        half-open probe now, without waiting out the backoff: if the probe
        round succeeds the flush serves the shard's whole queue.  Arrivals
        still queued when the flush returns (a failed probe, or a breaker
        the flush itself opened) go to the shard's lost entries, so every
        admitted arrival is either served or counted in
        ``health()["lost_arrivals"]``.

        Threading: lifecycle transitions are not synchronized against
        in-flight submissions — quiesce submitters before shutting down (a
        submit racing the transition can slip an arrival into the queue
        after the final flush).  The async gateway enforces this with its
        exclusive close gate; sync callers own the ordering themselves.
        """
        if self._state == "closed":
            return []
        self._state = "draining"
        for shard in self.shards:
            shard.supervisor.probe_now()
        emitted = self.flush()
        for shard in self.shards:
            shard._abandon_queue()
        self.close()
        return emitted

    def close(self) -> None:
        """Shut down the executor's worker pool and mark the cluster closed.

        Immediate (queued arrivals are *not* drained — use
        :meth:`shutdown` for a graceful stop) and idempotent.
        """
        self._state = "closed"
        self._executor.close()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # push delivery
    # ------------------------------------------------------------------ #
    def subscribe(self, sink: DecisionSink) -> DecisionSink:
        """Subscribe a sink to every decision the cluster emits.

        Delivery order: identical to the returned-list API for a
        single-threaded caller (backend-deterministic, pinned by the parity
        suite); per-stream order is always emission order, even with
        concurrent submitters.  Returns the sink for unsubscribe bookkeeping.
        """
        return self._sinks.add(sink)

    def unsubscribe(self, sink: DecisionSink) -> bool:
        """Remove a subscribed sink; False when it was not subscribed."""
        return self._sinks.remove(sink)

    def _publish(self, decisions: List[StreamDecision]) -> None:
        """Deliver an ordered emission batch to cluster-level subscribers.

        The single funnel for every published decision: submission-path
        rounds call it from the shard's pinned execution context, the
        cluster-level fan-outs from the merge point — so the decision meter
        counts exactly what subscribers see.
        """
        if not decisions:
            return
        with self._meter_lock:
            self._decisions_meter.tick(time.monotonic(), len(decisions))
        self._sinks.publish_all(decisions)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def shard_index(self, stream_id: Hashable) -> int:
        """Deterministic shard bucket of a stream id."""
        return stable_key_slot(stream_id, len(self.shards))

    def shard_of(self, stream_id: Hashable) -> ShardWorker:
        return self.shards[self.shard_index(stream_id)]

    def session(self, stream_id: Hashable, create: bool = False) -> Optional[StreamSession]:
        """The stream's session (``None`` unless seen before or ``create``)."""
        shard = self.shard_of(stream_id)
        if create:
            return shard.session(stream_id)
        return shard.sessions.get(stream_id)

    def sessions(self) -> Iterator[Tuple[Hashable, StreamSession]]:
        """All live ``(stream_id, session)`` pairs, shard by shard."""
        for shard in self.shards:
            yield from shard.sessions.items()

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #
    def submit(
        self, event: StreamEvent, stream_id: Optional[Hashable] = None
    ) -> SubmitResult:
        """Route one arrival to its stream's shard and serve what it fills.

        The stream id defaults to the event's ``source`` tag (what the
        multi-stream simulator stamps); pass ``stream_id`` explicitly when
        events carry no source.  A full queue is served one
        :meth:`serve_shard` round at a time until the arrival fits, and
        with ``auto_drain`` the shard then runs rounds while its queue holds
        ``batch_size`` arrivals.

        Returns a :class:`~repro.serving.results.SubmitResult`: the explicit
        admission outcome, the decisions those rounds emitted and the
        shard's queue depth.
        """
        emitted: List[StreamDecision] = []
        while True:
            shard_id, result = self.admit(event, stream_id)
            if result is not None:
                break
            emitted.extend(self.serve_shard(shard_id))
        if not result.admitted:
            return result
        shard = self.shards[shard_id]
        if self.config.auto_drain:
            while shard.queue_depth >= self.config.batch_size:
                if not shard.supervisor.allow_round():
                    break  # admitted but unserved: drains later, post-probe
                emitted.extend(self.serve_shard(shard_id))
        return SubmitResult(
            status="decided" if emitted else "accepted",
            stream_id=result.stream_id,
            shard_id=shard_id,
            decisions=tuple(emitted),
            queue_depth=shard.queue_depth,
        )

    def admit(
        self, event: StreamEvent, stream_id: Optional[Hashable] = None
    ) -> Tuple[int, Optional[SubmitResult]]:
        """Route one arrival and run its shard's admission; never a round.

        Returns the shard index and the :meth:`ShardWorker.submit` outcome,
        which is ``None`` when a full queue needs one :meth:`serve_shard`
        round of that shard before the arrival can be admitted again.  The
        async gateway admits on its event loop through this call.
        """
        self._require_running("submit")
        if stream_id is None:
            stream_id = event.source
        shard_id = self.shard_index(stream_id)
        result = self.shards[shard_id].submit(stream_id, event)
        if result is not None and result.admitted:
            with self._meter_lock:
                self._items_meter.tick(time.monotonic())
        return shard_id, result

    def serve_shard(self, shard_id: int) -> List[StreamDecision]:
        """One round of one shard; returns the decisions it published.

        The round runs with shard affinity (inline for the serial backend,
        on the shard's pinned worker for the thread backend) and publishes
        its emissions there before it returns.  The wait is
        :meth:`_await_shard_job`'s, so a failure is absorbed by the shard's
        supervisor.  A closed cluster raises :class:`RuntimeError`, and a
        ``shard_id`` outside ``[0, num_shards)`` raises :class:`IndexError`,
        both before anything runs.
        """
        self._require_open("serve_shard")
        if not 0 <= shard_id < len(self.shards):
            raise IndexError(
                f"shard id {shard_id} is outside [0, {len(self.shards)})"
            )
        shard = self.shards[shard_id]
        return self._await_shard_job(
            shard, self._executor.submit(shard_id, shard._drain_round_published)
        )

    def serve_queued(self) -> bool:
        """One round on every shard with queued arrivals; whether any ran.

        The async gateway's continuous-batching step.  Each queued shard
        whose breaker allows a round gets one round, published and awaited
        as in :meth:`serve_shard`; every round is dispatched before any is
        awaited, so under the thread backend the shards' rounds overlap.  A
        closed cluster runs nothing.
        """
        if self._state == "closed":
            return False
        jobs = [
            (shard, self._executor.submit(shard.shard_id, shard._drain_round_published))
            for shard in self.shards
            if shard.queue_depth and shard.supervisor.allow_round()
        ]
        for shard, job in jobs:
            self._await_shard_job(shard, job)
        return bool(jobs)

    def consume(
        self, events: Iterable[StreamEvent], stream_id: Optional[Hashable] = None
    ) -> ConsumeSummary:
        """Submit a whole stream of events.

        Returns a :class:`~repro.serving.results.ConsumeSummary` — a list of
        every decision emitted (legacy consumers are unchanged) that also
        tallies each submission's admission outcome, so degraded arrivals
        are not silently swallowed.
        """
        summary = ConsumeSummary()
        for event in events:
            summary.record(self.submit(event, stream_id=stream_id))
        return summary

    def _fan_out(self, fns) -> List[StreamDecision]:
        """Run one thunk per shard under supervision, merge, then publish.

        One job per shard is submitted before any is awaited, and the
        per-shard decision lists are collected indexed by shard;
        concatenating them yields the stable (shard index, round,
        intra-round) order — exactly the sequence the serial backend's
        shard-by-shard loop produces, whatever order the shards actually
        finished in.  Publication happens here at the merge point, in that
        same stable order — so sink delivery from cluster-level operations
        is backend-deterministic and list-identical to the returned value.

        Supervision: shards whose breaker is open are skipped (their list
        is empty — graceful degradation instead of certain failure).  Each
        dispatched job is awaited by :meth:`_await_shard_job`.
        """
        jobs: List[Optional[JobHandle]] = []
        for shard, fn in zip(self.shards, fns):
            if not shard.supervisor.allow_round():
                jobs.append(None)
                continue
            jobs.append(self._executor.submit(shard.shard_id, partial(self._shard_job, shard, fn)))
        results: List[List[StreamDecision]] = []
        for shard, job in zip(self.shards, jobs):
            if job is None:
                results.append([])
            else:
                results.append(self._await_shard_job(shard, job))
        merged = [decision for result in results for decision in result]
        self._publish(merged)
        return merged

    @staticmethod
    def _shard_job(shard: ShardWorker, fn) -> List[StreamDecision]:
        """One fan-out or ``flush_stream`` job body, running on the shard's
        execution context."""
        shard._fire_fault("executor-job")
        return fn()

    def _await_shard_job(self, shard: ShardWorker, job: JobHandle) -> List[StreamDecision]:
        """Wait for a shard job (a fan-out job or one round); absorb its failure.

        A job that raises outside a round's own handling (a session's
        flush, the executor-job fault site) feeds the shard's failure path
        and yields no decisions.  The wait has no deadline: a wedged round
        blocks its waiter, on either backend.
        """
        job.done.wait()
        if job.error is not None:
            if isinstance(job.error, Exception):
                sup = shard.supervisor
                sup.on_round_failure(job.error, sup.epoch, shard._take_round_entries())
                return []
            raise job.error  # KeyboardInterrupt and friends propagate
        return job.result  # type: ignore[return-value]

    def drain(self) -> List[StreamDecision]:
        """Process every queued arrival on every shard (in parallel when the
        thread backend is active)."""
        self._require_open("drain")
        return self._fan_out([shard._drain_inline for shard in self.shards])

    def flush(self) -> List[StreamDecision]:
        """Drain all queues, then force-decide every undecided key."""
        self._require_open("flush")
        return self._fan_out([shard._flush_inline for shard in self.shards])

    def flush_stream(self, stream_id: Hashable) -> List[StreamDecision]:
        """Drain one stream's shard, then force-decide that stream's keys.

        The per-stream lifecycle hook behind
        :meth:`~repro.serving.aio.AsyncServingGateway.flush_stream` and the
        HTTP per-stream flush verb: other streams on the same shard only
        have their queued arrivals drained (their decisions, if any, are
        part of the returned/published batch); only the target stream is
        force-decided.  The work is one shard job awaited by
        :meth:`_await_shard_job`, as a fan-out's is, so a failure (the
        ``executor-job`` fault site included) is absorbed by the shard's
        supervisor.
        """
        self._require_open("flush_stream")
        shard = self.shard_of(stream_id)
        if not shard.supervisor.allow_round():
            return []  # degraded: the shard may not run work right now
        job = partial(self._shard_job, shard, partial(shard._flush_inline, stream_id))
        emitted = self._await_shard_job(shard, self._executor.submit(shard.shard_id, job))
        self._publish(emitted)
        return emitted

    # ------------------------------------------------------------------ #
    # live stream migration
    # ------------------------------------------------------------------ #
    def stream_ids(self) -> List[Hashable]:
        """Ids of every stream the cluster holds, deterministically ordered."""
        ids: set = set()
        for shard in self.shards:
            ids.update(shard.stream_ids())
        return sorted(ids, key=repr)

    def extract_stream(self, stream_id: Hashable) -> StreamState:
        """Detach one stream — session plus queued arrivals — for migration.

        The cluster forgets the stream entirely (a later submit for the same
        id would start a brand-new session); the returned
        :class:`StreamState` is self-contained and can be installed into any
        cluster built over the same model/spec/engine config, where serving
        resumes bit-for-bit — the decision parity the snapshot/restore
        matrix proves, applied to a single stream.  Call between rounds (no
        concurrent submit/drain for this stream) — the router serializes
        this for you.
        """
        self._require_open("extract_stream")
        shard = self.shard_of(stream_id)
        session, pending = shard.extract_stream(stream_id)
        return StreamState(
            stream_id=stream_id, session=session, pending=tuple(pending)
        )

    def install_stream(self, state: StreamState) -> None:
        """Attach an extracted stream to this cluster (inverse of extract).

        Routes by the cluster's own hash (the shard index need not match the
        source cluster's) and leaves ``state`` reusable.  Installing over an
        existing session with the same stream id replaces it.
        """
        self._require_open("install_stream")
        shard = self.shard_of(state.stream_id)
        shard.install_stream(state.stream_id, state.session, list(state.pending))

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def _shared_memo(self) -> Dict[int, object]:
        """Deepcopy memo pre-seeded with the objects snapshots must share.

        Model weights, the value spec and the config objects are identical
        across all sessions and immutable at serving time; sharing them keeps
        snapshots cheap (state only) and restores pointing at the live model.
        """
        shared = (self.model, self.spec, self.config, self.config.engine)
        return {id(obj): obj for obj in shared}

    def snapshot(self) -> ClusterSnapshot:
        """Deep-copy the cluster's serving state (sessions, queues, counters)."""
        self._require_open("snapshot")
        states: List[Dict[str, object]] = []
        for shard in self.shards:
            states.append(
                {
                    "sessions": shard.sessions,
                    "queue": shard.pending_entries(),
                    "counters": {name: getattr(shard, name) for name in _SHARD_COUNTERS},
                    "monitor": shard.monitor,
                }
            )
        return ClusterSnapshot(
            num_shards=len(self.shards),
            shard_states=copy.deepcopy(states, self._shared_memo()),
        )

    def restore(self, snapshot: ClusterSnapshot) -> None:
        """Rewind the cluster to a snapshot (which stays reusable).

        Serving state — sessions, queues, counters, shard monitors — rewinds
        bit-for-bit.  Sink subscriptions, pending deliveries and throughput
        meters are untouched: nothing already published is rescinded or
        re-fired by the restore itself; replaying events re-emits (and
        re-publishes) the replayed decisions.
        """
        self._require_open("restore")
        if snapshot.num_shards != len(self.shards):
            raise ValueError(
                f"snapshot has {snapshot.num_shards} shards, cluster has "
                f"{len(self.shards)}"
            )
        states = copy.deepcopy(snapshot.shard_states, self._shared_memo())
        for shard, state in zip(self.shards, states):
            shard.sessions = state["sessions"]
            # Re-attach the cluster's live model/spec/config unconditionally:
            # a snapshot that went through ``pickle`` (serialized failover)
            # has its ``_shared_memo`` sharing severed — without this every
            # restored session would own a private weight copy, multiplying
            # per-shard memory and breaking atomic weight hot-swap.
            _attach_shared_refs(
                shard.sessions, self.model, self.spec, self.config.engine
            )
            shard.load_pending(state["queue"])
            for name, value in state["counters"].items():
                setattr(shard, name, value)
            shard.monitor = state.get("monitor") or ShardMonitor()
            # Re-arm supervision around the restored state: fresh
            # checkpoint, closed breaker, new epoch (counters survive —
            # they are telemetry, like sinks and meters).
            shard.supervisor.reset()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def num_sessions(self) -> int:
        return sum(len(shard.sessions) for shard in self.shards)

    @property
    def num_decided(self) -> int:
        return sum(session.num_decided for _, session in self.sessions())

    def health(self) -> Dict[str, object]:
        """The cluster's fault-tolerance view (also ``stats()["health"]``).

        Per-shard supervisor snapshots (breaker state, failure / restore
        counters, checkpoint cadence position, lost arrivals) plus
        cluster-wide totals, sink quarantine counts and executor thread
        accounting.  Everything here is telemetry: reading it never touches
        serving state.
        """
        shard_health = [shard.supervisor.health() for shard in self.shards]
        delivery = self._sinks.delivery_health()
        return {
            "shards": shard_health,
            "breaker_open": [
                shard.shard_id
                for shard, health in zip(self.shards, shard_health)
                if health["breaker"] != "closed"
            ],
            "failures": sum(health["failures"] for health in shard_health),
            "restores": sum(health["restores"] for health in shard_health),
            "degraded_submits": sum(health["degraded_submits"] for health in shard_health),
            "lost_arrivals": sum(health["lost_arrivals"] for health in shard_health),
            "checkpoints": sum(health["checkpoints"] for health in shard_health),
            "quarantined_sinks": delivery["quarantined"],
            "sink_publish_errors": delivery["publish_errors"],
            "leaked_workers": getattr(self._executor, "leaked_workers", 0),
        }

    def stats(self) -> Dict[str, object]:
        """Aggregate shard counters for monitoring/benchmarks."""
        merged_monitor = ShardMonitor.merged(shard.monitor for shard in self.shards)
        with self._meter_lock:
            # Zero-item ticks advance the sliding windows, so the reported
            # rates decay toward zero while the cluster idles instead of
            # freezing at the last active window's value.
            now = time.monotonic()
            self._items_meter.tick(now, 0)
            self._decisions_meter.tick(now, 0)
            items_per_s = self._items_meter.rate
            decisions_per_s = self._decisions_meter.rate
        return {
            "num_shards": len(self.shards),
            "executor": self.config.executor,
            "state": self._state,
            "num_sessions": self.num_sessions,
            "num_decided": self.num_decided,
            "queue_depths": [shard.queue_depth for shard in self.shards],
            "items_per_s": items_per_s,
            "decisions_per_s": decisions_per_s,
            "batch_rounds": sum(shard.batch_rounds for shard in self.shards),
            "batched_rows": sum(shard.batched_rows for shard in self.shards),
            "drained": sum(shard.drained for shard in self.shards),
            "rounds": merged_monitor.rounds,
            "round_latency_ms": merged_monitor.round_latency_ms.summary(),
            "round_queue_depth": merged_monitor.queue_depth.summary(),
            # Plain dicts (``ShardMonitorSnapshot.to_dict``), not dataclass
            # instances: the whole stats payload must survive ``json.dumps``
            # unchanged so the HTTP tier serves it without a custom encoder.
            "shard_monitors": [
                shard.monitor.snapshot().to_dict() for shard in self.shards
            ],
            "health": self.health(),
        }

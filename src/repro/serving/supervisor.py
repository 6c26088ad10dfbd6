"""Per-shard supervision: circuit breakers, checkpoints, crash recovery.

The cluster's shards are exact and parallel but — before this module —
brittle: an exception escaping a drain round propagated to the caller with
the shard's sessions half-mutated, and snapshots were manual whole-cluster
operations.  This module supplies the fault-tolerance layer:

* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, per shard.  Consecutive round failures open the breaker; while
  open, the shard is skipped by cluster fan-outs and its streams see
  ``"degraded"`` submission outcomes; after an exponential backoff one probe
  round is allowed (half-open) and either closes the breaker or re-opens it
  with a doubled backoff.

* :class:`CheckpointConfig` / periodic checkpoints — every N successful
  rounds the supervisor deep-copies its shard's serving state (sessions,
  queue, counters — sharing the model weights, exactly like cluster
  snapshots, at shard granularity) and clears the shard's *admission
  journal* (every arrival admitted since the previous checkpoint).

* Crash recovery — any exception escaping a drain round means the shard's
  in-memory state can no longer be trusted.  The supervisor restores the
  last checkpoint bit-for-bit and rebuilds the arrival queue as

      ``checkpoint queue + journaled admissions − the dead round's arrivals``

  so the only arrivals *lost* are the ones consumed by the round that died
  (they are recorded in :attr:`ShardSupervisor.lost_entries`).  Journaled
  arrivals that earlier rounds had already served are re-queued and
  re-served against the rewound sessions: deterministic rounds make the
  replay reproduce the pre-crash decisions exactly, so delivery across a
  recovery is *at-least-once* (the gateway registry's first-emission rule
  dedups), and per-stream decisions for every non-lost arrival match a
  never-crashed reference bit-for-bit — the recovery-parity leg of the
  parity matrix pins this under both executor backends.

A round that wedges (sleeps or blocks without raising) is waited for: its
caller blocks on either backend, and ``ThreadExecutor.close`` bounds only
shutdown, with its join timeout.

Epochs: every recovery and every cluster-level restore bumps
:attr:`ShardSupervisor.epoch`.  Worker-side round reports carry the epoch
they started under, so a round still running when a waiter-side recovery or
a :meth:`~repro.serving.cluster.ServingCluster.restore` replaced the shard's
state cannot corrupt the new state's bookkeeping — its stale report is
counted and dropped, and the round's own bookkeeping tail (counters,
monitor, lost-entry tracking) is epoch-gated inside the shard.

The supervisor holds no references into :mod:`repro.serving.cluster`
machinery beyond the shard object it supervises (state capture/restore are
shard methods), so this module stays import-cycle-free and independently
testable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

from repro.serving.engine import require_ints
from repro.serving.monitoring import Log2Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.data.stream import StreamEvent
    from repro.serving.cluster import ShardWorker

__all__ = [
    "BREAKER_STATES",
    "CheckpointConfig",
    "CircuitBreaker",
    "ShardSupervisor",
    "SupervisorConfig",
]

#: Circuit-breaker states: ``closed`` (healthy), ``open`` (failing — degrade
#: submissions, skip fan-out rounds until the backoff elapses),
#: ``half_open`` (backoff elapsed — one probe decides).
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass
class CheckpointConfig:
    """Cadence of periodic per-shard checkpoints.

    Attributes
    ----------
    every_rounds:
        Take a checkpoint after this many successful drain rounds.  ``0``
        disables periodic checkpointing *and* admission journaling: the
        supervisor then only holds the checkpoint taken at shard birth (or
        at the latest cluster-level restore), so a crash recovery rewinds
        all the way back there and every arrival since is lost.  Keep it
        positive in deployments; the default trades one state deep-copy per
        64 rounds for a bounded recovery window.  Sessions copy container
        by container (``StreamSession.__deepcopy__``): one shard of 32
        saturated rotary sessions (window 128) captures in ~2.3x one
        width-16 drain round of that shard (~8-15 ms on a 2-core x86-64
        box), so the default cadence adds ~4% to the shard's round time.
        A generic object walk over every windowed item cost ~15-19x
        (~110-130 ms), ~28% of a saturated drain's wall clock.
    """

    every_rounds: int = 64

    def __post_init__(self) -> None:
        require_ints(self, "every_rounds")
        if self.every_rounds < 0:
            raise ValueError("every_rounds must be >= 0 (0 disables)")


@dataclass
class SupervisorConfig:
    """Knobs of per-shard supervision (one shared config, per-shard state).

    Attributes
    ----------
    checkpoint:
        Periodic checkpoint cadence (:class:`CheckpointConfig`).
    failure_threshold:
        Consecutive round failures that open the shard's breaker.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff of open-breaker probe scheduling: the first
        open lasts ``backoff_base_s``, each re-open multiplies the wait by
        ``backoff_factor`` up to ``backoff_max_s``; a successful probe
        resets it.  While the breaker is open, submissions to the shard
        are not admitted and answer ``status="degraded"``.
    sink_quarantine_after:
        Consecutive publish failures after which a subscribed sink is
        quarantined (auto-unsubscribed) by its
        :class:`~repro.serving.sinks.FanOutSink`.
    clock:
        Monotonic time source for breaker backoff — injectable for tests.
    """

    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    failure_threshold: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    sink_quarantine_after: int = 3
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        require_ints(self, "failure_threshold", "sink_quarantine_after")
        if self.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if self.sink_quarantine_after <= 0:
            raise ValueError("sink_quarantine_after must be positive")


class CircuitBreaker:
    """Closed → open → half-open failure gate with exponential backoff.

    Not internally locked: the owning :class:`ShardSupervisor` serializes
    all access under its own lock.
    """

    def __init__(self, config: SupervisorConfig) -> None:
        self._config = config
        self.state = "closed"
        self.consecutive_failures = 0
        self.opens = 0
        self._backoff = config.backoff_base_s
        self._retry_at = 0.0

    @property
    def current_backoff_s(self) -> float:
        """The backoff the *next* open would impose."""
        return self._backoff

    def allow(self) -> bool:
        """Whether work may run now; flips open → half-open at backoff end."""
        if self.state == "closed" or self.state == "half_open":
            return True
        if self._config.clock() >= self._retry_at:
            self.state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        """A round completed: close the breaker and reset the backoff."""
        self.state = "closed"
        self.consecutive_failures = 0
        self._backoff = self._config.backoff_base_s

    def probe_now(self) -> None:
        """Let an open breaker's half-open probe run now, ahead of its backoff."""
        if self.state == "open":
            self.state = "half_open"

    def record_failure(self) -> None:
        """A round failed: maybe open, scheduling the next probe."""
        self.consecutive_failures += 1
        if (
            self.state == "half_open"
            or self.consecutive_failures >= self._config.failure_threshold
        ):
            self.state = "open"
            self.opens += 1
            self._retry_at = self._config.clock() + self._backoff
            self._backoff = min(
                self._backoff * self._config.backoff_factor,
                self._config.backoff_max_s,
            )

    def reset(self) -> None:
        """Back to pristine closed (e.g. after a cluster-level restore)."""
        self.state = "closed"
        self.consecutive_failures = 0
        self._backoff = self._config.backoff_base_s
        self._retry_at = 0.0


#: One journaled / lost arrival: ``(stream_id, event)``.
_Entry = Tuple[Hashable, "StreamEvent"]


class ShardSupervisor:
    """Failure containment and crash recovery for one shard worker.

    Owns the shard's circuit breaker, its checkpoint, and every failure
    counter the cluster's ``stats()["health"]`` view reports.  All
    bookkeeping runs under one lock; the heavyweight operations (checkpoint
    deep-copies, recovery restores) happen inside it too, trading brief
    contention for a race-free state machine (rounds of one shard are
    serialized anyway).
    """

    def __init__(self, shard: "ShardWorker", config: SupervisorConfig) -> None:
        self.shard = shard
        self.config = config
        self._lock = threading.Lock()
        self.breaker = CircuitBreaker(config)
        #: Bumped on every recovery; stale worker reports are dropped by it.
        self.epoch = 0
        self._rounds_since_checkpoint = 0
        self.failures = 0
        self.restores = 0
        self.checkpoints = 0
        self.stale_reports = 0
        self.degraded_submits = 0
        self.last_error: Optional[str] = None
        #: Every arrival consumed by a round that died — the recovery
        #: casualties, in crash order (the parity tests subtract these from
        #: the reference workload) — then any left queued by a graceful
        #: stop (:meth:`note_lost`).
        self.lost_entries: List[_Entry] = []
        self.recovery_ms = Log2Histogram()
        self._checkpoint: Dict[str, object] = {}
        with self._lock:
            self._take_checkpoint_locked()

    # ------------------------------------------------------------------ #
    # gating
    # ------------------------------------------------------------------ #
    def allow_round(self) -> bool:
        """Whether a drain round may run now (breaker gate + probe timing)."""
        with self._lock:
            return self.breaker.allow()

    def submission_allowed(self) -> bool:
        """Whether a new arrival may be admitted (False = degraded)."""
        with self._lock:
            return self.breaker.allow()

    def note_degraded_submit(self) -> None:
        with self._lock:
            self.degraded_submits += 1

    def probe_now(self) -> None:
        """Allow an open breaker's half-open probe without waiting out its
        backoff (a graceful stop, after which no later call would probe)."""
        with self._lock:
            self.breaker.probe_now()

    def note_lost(self, entries: List[_Entry]) -> None:
        """Count arrivals that will never be served (queued at shutdown)."""
        with self._lock:
            self.lost_entries.extend(entries)

    # ------------------------------------------------------------------ #
    # round reports (worker side, epoch-guarded)
    # ------------------------------------------------------------------ #
    def note_round_success(self, epoch: int) -> bool:
        """A round completed cleanly; maybe take a periodic checkpoint.

        Returns False (and counts a stale report) when ``epoch`` predates a
        recovery — the caller must then discard the round's emissions too,
        since the state they were computed against has been replaced.
        """
        with self._lock:
            if epoch != self.epoch:
                self.stale_reports += 1
                return False
            self.breaker.record_success()
            cadence = self.config.checkpoint.every_rounds
            if cadence > 0:
                self._rounds_since_checkpoint += 1
                if self._rounds_since_checkpoint >= cadence:
                    self._take_checkpoint_locked()
            return True

    def on_round_failure(self, error: BaseException, epoch: int, lost: List[_Entry]) -> None:
        """A round raised: count, trip the breaker, recover from checkpoint."""
        with self._lock:
            if epoch != self.epoch:
                self.stale_reports += 1
                return
            self.failures += 1
            self.last_error = f"{type(error).__name__}: {error}"
            self.breaker.record_failure()
            self._recover_locked(lost)

    # ------------------------------------------------------------------ #
    # checkpointing / recovery
    # ------------------------------------------------------------------ #
    def checkpoint_now(self) -> None:
        """Force a checkpoint of the shard's current state."""
        with self._lock:
            self._take_checkpoint_locked()

    def _take_checkpoint_locked(self) -> None:
        self._checkpoint = self.shard._capture_checkpoint()
        self._rounds_since_checkpoint = 0
        self.checkpoints += 1

    def _recover_locked(self, lost: List[_Entry]) -> None:
        """Restore the checkpoint; rebuild the queue; re-checkpoint.

        The rebuilt queue is ``checkpoint queue + admission journal − lost``
        (each lost entry removed once, by value).  The post-recovery state
        immediately becomes the new checkpoint — its sessions are the exact
        deep copies we just made for the restore, so only the queue entry
        list (immutable events, shared not copied) needs refreshing.
        """
        start = time.perf_counter()
        self.epoch += 1
        self.lost_entries.extend(lost)
        state = dict(self._checkpoint)
        restored = self.shard._restore_from_checkpoint(state, lost)
        self._checkpoint = dict(state, queue=list(restored))
        self._rounds_since_checkpoint = 0
        self.checkpoints += 1
        self.restores += 1
        self.recovery_ms.observe((time.perf_counter() - start) * 1e3)

    def reset(self) -> None:
        """Re-arm after an external state change (cluster-level restore):
        fresh checkpoint of the current state, breaker closed, new epoch.
        Failure counters are telemetry and survive, like sinks and meters.
        """
        with self._lock:
            self.epoch += 1
            self.breaker.reset()
            self._take_checkpoint_locked()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Immutable health view of this shard for ``stats()["health"]``."""
        with self._lock:
            return {
                "breaker": self.breaker.state,
                "consecutive_failures": self.breaker.consecutive_failures,
                "breaker_opens": self.breaker.opens,
                "failures": self.failures,
                "restores": self.restores,
                "degraded_submits": self.degraded_submits,
                "checkpoints": self.checkpoints,
                "rounds_since_checkpoint": self._rounds_since_checkpoint,
                "lost_arrivals": len(self.lost_entries),
                "stale_reports": self.stale_reports,
                "recovery_ms": self.recovery_ms.summary(),
                "last_error": self.last_error,
            }

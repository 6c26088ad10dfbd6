"""Running metrics for a live early-classification deployment.

The offline metrics of :mod:`repro.eval.metrics` need all prediction records
up front.  A deployment instead wants *running* numbers — accuracy and
earliness so far, per-class tallies, decision latency, throughput — updated
as each decision is emitted.  These aggregators are intentionally small and
allocation-free so they can sit on the serving hot path.

The fault-tolerance layer reports through the same primitives: each
:class:`~repro.serving.supervisor.ShardSupervisor` tracks its checkpoint
recovery latency in a :class:`Log2Histogram` (surfaced per shard in
``ServingCluster.stats()["health"]``), merging across shards by the same
plain count addition as the round-latency histograms here.  A caveat for
monitor consumers: shard monitors are serving state, so a crash recovery
rewinds the failed shard's :class:`ShardMonitor` to its last checkpoint
along with the sessions — supervisor counters (failures, restores, lost
arrivals) are the durable record of what happened in between.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.core.model import PredictionRecord
from repro.eval.metrics import harmonic_mean
from repro.serving.engine import Decision


@dataclass
class ClassTally:
    """Per-class running counts."""

    decided: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.decided if self.decided else 0.0


@dataclass(frozen=True)
class MonitorSnapshot:
    """Immutable point-in-time summary of a :class:`DecisionMonitor`.

    Safe to hand across shard boundaries: it shares no mutable state with
    the monitor it came from, so a cluster can publish per-shard snapshots
    while the shards keep serving.
    """

    num_decisions: int
    num_with_labels: int
    num_correct: int
    num_policy_halts: int
    total_observations: int
    total_confidence: float
    earliness_sum: float
    earliness_count: int
    accuracy: float
    earliness: float
    harmonic_mean: float
    mean_observations: float
    mean_confidence: float
    policy_halt_fraction: float
    per_class: Mapping[int, Tuple[int, int]]  # label -> (decided, correct)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view: string keys, lists, no dataclasses.

        ``json.loads(json.dumps(snap.to_dict())) == snap.to_dict()`` holds
        exactly, which is what lets ``/v1/stats`` serve snapshots without a
        custom encoder.
        """
        payload = dataclasses.asdict(self)
        payload["per_class"] = {
            str(label): list(tally) for label, tally in self.per_class.items()
        }
        return payload


class DecisionMonitor:
    """Aggregate decisions against (optionally available) ground truth.

    Labels are supplied once at construction (evaluation / shadow deployment)
    or omitted entirely (production), in which case only label-free statistics
    (observation counts, confidence, throughput of decisions) are maintained.
    """

    def __init__(
        self,
        labels: Optional[Dict[Hashable, int]] = None,
        sequence_lengths: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        self.labels = dict(labels or {})
        self.sequence_lengths = dict(sequence_lengths or {})
        self.num_decisions = 0
        self.num_correct = 0
        self.num_with_labels = 0
        self.num_policy_halts = 0
        self.total_observations = 0
        self.total_confidence = 0.0
        self.earliness_sum = 0.0
        self.earliness_count = 0
        self.per_class: Dict[int, ClassTally] = {}
        self._records: List[PredictionRecord] = []

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def observe(self, decision: Decision) -> None:
        """Fold one decision into the running statistics."""
        self.num_decisions += 1
        self.total_observations += decision.observations
        self.total_confidence += decision.confidence
        if decision.halted_by_policy:
            self.num_policy_halts += 1

        label = self.labels.get(decision.key)
        if label is None:
            return
        self.num_with_labels += 1
        tally = self.per_class.setdefault(int(label), ClassTally())
        tally.decided += 1
        if decision.predicted == label:
            self.num_correct += 1
            tally.correct += 1
        length = self.sequence_lengths.get(decision.key)
        if length:
            self.earliness_sum += decision.observations / length
            self.earliness_count += 1
        self._records.append(
            decision.to_record(label, length or decision.observations)
        )

    def observe_all(self, decisions) -> None:
        for decision in decisions:
            self.observe(decision)

    # ------------------------------------------------------------------ #
    # aggregation across shards
    # ------------------------------------------------------------------ #
    def merge(self, other: "DecisionMonitor") -> "DecisionMonitor":
        """Fold another monitor's statistics into this one.

        Used to aggregate per-shard monitors into a cluster-level view.  All
        of ``other``'s state is *copied* — tallies, records, label maps — so
        the two monitors share no mutable structure and both can keep
        observing independently afterwards.  Returns ``self`` for chaining.
        """
        self.num_decisions += other.num_decisions
        self.num_correct += other.num_correct
        self.num_with_labels += other.num_with_labels
        self.num_policy_halts += other.num_policy_halts
        self.total_observations += other.total_observations
        self.total_confidence += other.total_confidence
        self.earliness_sum += other.earliness_sum
        self.earliness_count += other.earliness_count
        for label, tally in other.per_class.items():
            mine = self.per_class.setdefault(int(label), ClassTally())
            mine.decided += tally.decided
            mine.correct += tally.correct
        for key, label in other.labels.items():
            self.labels.setdefault(key, label)
        for key, length in other.sequence_lengths.items():
            self.sequence_lengths.setdefault(key, length)
        # PredictionRecord is a mutable dataclass: copy, don't alias, so the
        # no-shared-mutable-state contract holds for records() consumers too.
        self._records.extend(replace(record) for record in other._records)
        return self

    @classmethod
    def merged(cls, monitors: Iterable["DecisionMonitor"]) -> "DecisionMonitor":
        """A fresh monitor aggregating ``monitors`` (which stay untouched)."""
        combined = cls()
        for monitor in monitors:
            combined.merge(monitor)
        return combined

    def snapshot(self) -> MonitorSnapshot:
        """An immutable summary sharing no mutable state with the monitor."""
        return MonitorSnapshot(
            num_decisions=self.num_decisions,
            num_with_labels=self.num_with_labels,
            num_correct=self.num_correct,
            num_policy_halts=self.num_policy_halts,
            total_observations=self.total_observations,
            total_confidence=self.total_confidence,
            earliness_sum=self.earliness_sum,
            earliness_count=self.earliness_count,
            accuracy=self.accuracy,
            earliness=self.earliness,
            harmonic_mean=self.harmonic_mean,
            mean_observations=self.mean_observations,
            mean_confidence=self.mean_confidence,
            policy_halt_fraction=self.policy_halt_fraction,
            per_class={
                int(label): (tally.decided, tally.correct)
                for label, tally in self.per_class.items()
            },
        )

    # ------------------------------------------------------------------ #
    # running metrics
    # ------------------------------------------------------------------ #
    @property
    def accuracy(self) -> float:
        return self.num_correct / self.num_with_labels if self.num_with_labels else 0.0

    @property
    def earliness(self) -> float:
        return self.earliness_sum / self.earliness_count if self.earliness_count else 0.0

    @property
    def harmonic_mean(self) -> float:
        return harmonic_mean(self.accuracy, self.earliness)

    @property
    def mean_observations(self) -> float:
        return self.total_observations / self.num_decisions if self.num_decisions else 0.0

    @property
    def mean_confidence(self) -> float:
        return self.total_confidence / self.num_decisions if self.num_decisions else 0.0

    @property
    def policy_halt_fraction(self) -> float:
        return self.num_policy_halts / self.num_decisions if self.num_decisions else 0.0

    def records(self) -> List[PredictionRecord]:
        """All labelled decisions converted to prediction records."""
        return list(self._records)

    def report(self) -> str:
        """A compact multi-line status report."""
        lines = [
            f"decisions            {self.num_decisions}",
            f"labelled decisions   {self.num_with_labels}",
            f"accuracy             {self.accuracy * 100:6.2f}%",
            f"earliness            {self.earliness * 100:6.2f}%",
            f"harmonic mean        {self.harmonic_mean:.3f}",
            f"mean observations    {self.mean_observations:.2f}",
            f"mean confidence      {self.mean_confidence:.3f}",
            f"policy-halt fraction {self.policy_halt_fraction * 100:6.2f}%",
        ]
        if self.per_class:
            lines.append("per-class accuracy:")
            for label in sorted(self.per_class):
                tally = self.per_class[label]
                lines.append(
                    f"  class {label:<3} decided={tally.decided:<5} accuracy={tally.accuracy * 100:6.2f}%"
                )
        return "\n".join(lines)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable summary of a :class:`Log2Histogram`."""

    count: int
    total: float
    minimum: float
    maximum: float
    mean: float
    p50: float
    p95: float
    p99: float
    #: Sparse ``bucket index -> count`` view of the non-empty buckets.
    buckets: Mapping[int, int]

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view; bucket keys become strings (JSON object keys)."""
        return {
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {str(index): count for index, count in self.buckets.items()},
        }


class Log2Histogram:
    """Fixed-geometry power-of-two histogram for hot-path gauges.

    Buckets are shared by every instance (bucket ``k`` counts values in
    ``(2**(k-1+MIN_EXP), 2**(k+MIN_EXP)]``, clamped at both ends), so two
    histograms merge by plain count addition — no bucket negotiation, no
    allocation on ``observe``.  The range ``2**MIN_EXP .. 2**MAX_EXP``
    (≈ 1e-3 .. 16384) covers sub-millisecond round latencies and deep queue
    backlogs alike.  Percentiles are read from the bucket counts as the
    bucket upper edge — a ≤2x overestimate by construction, which is the
    usual contract of log-bucketed latency telemetry.
    """

    MIN_EXP = -10
    MAX_EXP = 14
    NUM_BUCKETS = MAX_EXP - MIN_EXP + 1

    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * self.NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @classmethod
    def bucket_of(cls, value: float) -> int:
        """The bucket index a value falls into (edges are powers of two)."""
        if value <= 2.0 ** cls.MIN_EXP:
            return 0
        exponent = math.ceil(math.log2(value))
        return min(cls.NUM_BUCKETS - 1, int(exponent) - cls.MIN_EXP)

    @classmethod
    def bucket_upper_edge(cls, index: int) -> float:
        return 2.0 ** (index + cls.MIN_EXP)

    def observe(self, value: float) -> None:
        """Fold one non-negative sample into the histogram."""
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        self.counts[self.bucket_of(value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Upper bucket edge at the given quantile (0 when empty)."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not self.count:
            return 0.0
        rank = math.ceil(quantile * self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return min(self.bucket_upper_edge(index), self.maximum)
        return self.maximum  # pragma: no cover - rank <= count always hits

    # ------------------------------------------------------------------ #
    # aggregation across shards
    # ------------------------------------------------------------------ #
    def merge(self, other: "Log2Histogram") -> "Log2Histogram":
        """Fold another histogram in (bucket geometry is shared by design)."""
        for index in range(self.NUM_BUCKETS):
            self.counts[index] += other.counts[index]
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Log2Histogram"]) -> "Log2Histogram":
        """A fresh histogram aggregating ``histograms`` (left untouched)."""
        combined = cls()
        for histogram in histograms:
            combined.merge(histogram)
        return combined

    def snapshot(self) -> HistogramSnapshot:
        empty = not self.count
        return HistogramSnapshot(
            count=self.count,
            total=self.total,
            minimum=0.0 if empty else self.minimum,
            maximum=0.0 if empty else self.maximum,
            mean=self.mean,
            p50=self.percentile(0.50),
            p95=self.percentile(0.95),
            p99=self.percentile(0.99),
            buckets={
                index: count for index, count in enumerate(self.counts) if count
            },
        )

    def summary(self) -> Dict[str, float]:
        """Compact dict view for ``ServingCluster.stats()`` consumers."""
        snap = self.snapshot()
        return {
            "count": snap.count,
            "mean": snap.mean,
            "p50": snap.p50,
            "p95": snap.p95,
            "p99": snap.p99,
            "max": snap.maximum,
        }


@dataclass(frozen=True)
class ShardMonitorSnapshot:
    """Immutable summary of one shard's drain-round health."""

    rounds: int
    rows: int
    round_latency_ms: HistogramSnapshot
    queue_depth: HistogramSnapshot

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view: nested histograms render via their ``to_dict``."""
        return {
            "rounds": self.rounds,
            "rows": self.rows,
            "round_latency_ms": self.round_latency_ms.to_dict(),
            "queue_depth": self.queue_depth.to_dict(),
        }


class ShardMonitor:
    """Drain-round telemetry of one shard worker.

    Two gauges per round: the queue depth the round found (how loaded the
    shard runs) and the round's wall-clock latency (what one drain costs),
    plus the rows served, so ``rows / rounds`` is the realized round width.
    Like :class:`DecisionMonitor`, shard monitors are worker-local and
    mergeable into an exact cluster-level view.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.rows = 0
        self.round_latency_ms = Log2Histogram()
        self.queue_depth = Log2Histogram()

    def observe_round(self, queue_depth: int, rows: int, elapsed_ms: float) -> None:
        """Record one drain round: depth at round start, rows served, cost."""
        self.rounds += 1
        self.rows += rows
        self.round_latency_ms.observe(elapsed_ms)
        self.queue_depth.observe(float(queue_depth))

    def merge(self, other: "ShardMonitor") -> "ShardMonitor":
        """Fold another shard's telemetry in; returns ``self`` for chaining."""
        self.rounds += other.rounds
        self.rows += other.rows
        self.round_latency_ms.merge(other.round_latency_ms)
        self.queue_depth.merge(other.queue_depth)
        return self

    @classmethod
    def merged(cls, monitors: Iterable["ShardMonitor"]) -> "ShardMonitor":
        """A fresh monitor aggregating ``monitors`` (left untouched)."""
        combined = cls()
        for monitor in monitors:
            combined.merge(monitor)
        return combined

    def snapshot(self) -> ShardMonitorSnapshot:
        return ShardMonitorSnapshot(
            rounds=self.rounds,
            rows=self.rows,
            round_latency_ms=self.round_latency_ms.snapshot(),
            queue_depth=self.queue_depth.snapshot(),
        )


class ThroughputMeter:
    """Items per unit of time over a (optionally sliding) checkpoint span.

    Without a ``window`` the meter averages over its whole lifetime — the
    simulated-time usage the arrival benchmarks rely on.  With ``window=w``
    only the last ``w`` time units of checkpoints are retained and ``rate``
    becomes a sliding-window gauge: that is how
    :meth:`~repro.serving.cluster.ServingCluster.stats` reports wall-clock
    ``items_per_s`` / ``decisions_per_s`` without unbounded growth.  The
    oldest retained checkpoint is allowed to straddle the window edge so
    the measured span never collapses below the observed data.

    ``granularity`` bounds the retained checkpoints at ~``window /
    granularity`` however fast events arrive — the hot-path configuration:
    the newest tick always becomes the latest checkpoint, and intermediate
    checkpoints closer together than the granularity are merged away (rate
    error at most one granularity out of one window).  Without it every
    tick is retained exactly.
    """

    def __init__(
        self, window: Optional[float] = None, granularity: Optional[float] = None
    ) -> None:
        if window is not None and window <= 0:
            raise ValueError("window must be positive (or None for unbounded)")
        if granularity is not None and granularity <= 0:
            raise ValueError("granularity must be positive (or None for exact)")
        self.window = window
        self.granularity = granularity
        self._checkpoints: Deque[Tuple[float, int]] = deque()
        self.items = 0

    def tick(self, time: float, items: int = 1) -> None:
        """Record that ``items`` arrivals were processed at ``time``."""
        if items < 0:
            raise ValueError("items must be non-negative")
        self.items += items
        if self._checkpoints and time < self._checkpoints[-1][0]:
            raise ValueError("time must be non-decreasing")
        if (
            self.granularity is not None
            and len(self._checkpoints) >= 2
            and time - self._checkpoints[-2][0] < self.granularity
        ):
            # The previous latest checkpoint is within one granularity of
            # its predecessor once this tick lands: subsume it, keeping the
            # newest tick as the live endpoint of the measured span.
            self._checkpoints.pop()
        self._checkpoints.append((time, self.items))
        if self.window is not None:
            cutoff = time - self.window
            # Keep one checkpoint at/before the cutoff as the rate baseline.
            while len(self._checkpoints) > 1 and self._checkpoints[1][0] <= cutoff:
                self._checkpoints.popleft()

    @property
    def elapsed(self) -> float:
        """Time span covered by the retained checkpoints."""
        if len(self._checkpoints) < 2:
            return 0.0
        return self._checkpoints[-1][0] - self._checkpoints[0][0]

    @property
    def rate(self) -> float:
        """Items per unit of time over the retained span (0 when undefined)."""
        if self.elapsed <= 0:
            return 0.0
        first_items = self._checkpoints[0][1]
        return (self.items - first_items) / self.elapsed

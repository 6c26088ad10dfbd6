"""Simulation of a live tangled key-value arrival process.

The generators in :mod:`repro.datasets` produce *complete* labelled per-key
sequences.  A deployment never sees those: it sees an unbounded stream in
which new keys start, interleave with the currently active keys and finish.
:class:`ArrivalSimulator` reconstructs that process from a pool of labelled
sequences:

* key *start times* follow a Poisson process with a configurable rate (or a
  fixed target number of concurrently active keys) — optionally modulated by
  a mean-preserving ``burst`` (on/off duty cycle) rate profile,
* within a key, item inter-arrival gaps are taken from the source sequence
  (rescaled to a common unit), so bursts/sessions survive the simulation,
* the output is a single chronologically ordered stream of
  :class:`~repro.data.stream.StreamEvent` objects.

The simulator is deterministic for a fixed seed, which the serving tests and
the online-serving example rely on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.items import Item, KeyValueSequence
from repro.data.stream import StreamEvent, merge_streams


@dataclass
class SimulatorConfig:
    """Knobs of the arrival simulation.

    Attributes
    ----------
    arrival_rate:
        Mean number of new keys starting per unit of simulated time.
    gap_scale:
        Multiplier applied to the source sequences' inter-item gaps; values
        below 1 compress flows (more overlap), above 1 stretch them.
    max_active:
        Upper bound on simultaneously active keys; when reached, new key
        starts are delayed until an active key finishes.  ``0`` disables the
        bound.  Delays follow FIFO ``c``-server queue semantics: each waiting
        key consumes exactly one slot release, and the Poisson *arrival*
        process is never advanced by waiting — so a busy period no longer
        collapses every delayed key onto the same release tick.
    key_skew:
        Zipf exponent of the per-key arrival-rate skew (``0`` = uniform, the
        default).  With skew ``s`` the ``r``-th key of the shuffled start
        order draws its start gap at a rate proportional to ``(r+1)^{-s}``
        (normalised so the expected total start span — the aggregate load —
        matches the unskewed schedule), so a few *hot* keys start in rapid
        succession while the cold tail spreads out — the hot-key traffic
        shape real clusters see.
    pattern:
        Temporal shape of the key-start process.  ``"poisson"`` (default) is
        the homogeneous process.  ``"burst"`` modulates the instantaneous
        start rate by a periodic profile ``m(t)`` with mean 1 over its
        period (inhomogeneous Poisson via the time-change theorem:
        exponential draws accumulate in integrated-hazard space and are
        mapped back through the inverse cumulative profile), so the **mean
        arrival rate is preserved exactly** — the pattern redistributes load
        in time, it never adds or removes it.  Within a key, item gaps still
        come from the source sequence; the pattern shapes key *starts*.
    burst_period / burst_duty / burst_floor:
        ``"burst"`` is an on/off duty cycle: each period of ``burst_period``
        time units starts with an *on* phase covering ``burst_duty`` of the
        period at elevated rate, followed by an *off* phase at
        ``burst_floor`` (relative to the nominal rate; ``0`` = fully quiet).
        The on-rate is solved from mean-1: ``(1 - (1-duty)·floor) / duty``.
    seed:
        Seed of the Poisson start-time draws.
    """

    arrival_rate: float = 1.0
    gap_scale: float = 1.0
    max_active: int = 0
    key_skew: float = 0.0
    pattern: str = "poisson"
    burst_period: float = 16.0
    burst_duty: float = 0.25
    burst_floor: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.gap_scale <= 0:
            raise ValueError("gap_scale must be positive")
        if self.max_active < 0:
            raise ValueError("max_active must be non-negative")
        if self.key_skew < 0:
            raise ValueError("key_skew must be non-negative")
        if self.pattern not in ("poisson", "burst"):
            raise ValueError(f"unknown arrival pattern {self.pattern!r}")
        if self.burst_period <= 0:
            raise ValueError("burst_period must be positive")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ValueError("burst_duty must be in (0, 1]")
        if not 0.0 <= self.burst_floor <= 1.0:
            raise ValueError("burst_floor must be in [0, 1]")


@dataclass
class _ScheduledKey:
    """One key's schedule: its start time and the relative item offsets."""

    key: Hashable
    label: int
    start: float
    offsets: List[float]
    values: List[Tuple[int, ...]]

    @property
    def end(self) -> float:
        return self.start + (self.offsets[-1] if self.offsets else 0.0)


class ArrivalSimulator:
    """Replay a pool of labelled sequences as one live arrival process."""

    def __init__(
        self,
        sequences: Sequence[KeyValueSequence],
        config: Optional[SimulatorConfig] = None,
    ) -> None:
        if not sequences:
            raise ValueError("the simulator needs at least one source sequence")
        for sequence in sequences:
            if sequence.label is None:
                raise ValueError(f"sequence {sequence.key!r} has no label")
            if not len(sequence):
                raise ValueError(f"sequence {sequence.key!r} is empty")
        self.sequences = list(sequences)
        self.config = config or SimulatorConfig()
        self._schedule = self._build_schedule()

    # ------------------------------------------------------------------ #
    # schedule construction
    # ------------------------------------------------------------------ #
    def _relative_offsets(self, sequence: KeyValueSequence) -> List[float]:
        times = sequence.times()
        base = times[0]
        return [(time - base) * self.config.gap_scale for time in times]

    # ------------------------------------------------------------------ #
    # arrival-pattern modulation (inhomogeneous Poisson via time change)
    # ------------------------------------------------------------------ #
    def modulated_rate(self, time: float) -> float:
        """Instantaneous key-start rate at ``time`` under the pattern."""
        return self.config.arrival_rate * self._profile(time % self._pattern_period())

    def _pattern_period(self) -> float:
        if self.config.pattern == "burst":
            return self.config.burst_period
        return 1.0  # any period works: the poisson profile is constant 1

    def _burst_on_rate(self) -> float:
        """On-phase relative rate solved from the mean-1 constraint."""
        duty, floor = self.config.burst_duty, self.config.burst_floor
        return (1.0 - (1.0 - duty) * floor) / duty

    def _profile(self, phase: float) -> float:
        """Relative rate ``m`` at ``phase`` within one period (mean 1)."""
        config = self.config
        if config.pattern == "burst":
            if phase < config.burst_duty * config.burst_period:
                return self._burst_on_rate()
            return config.burst_floor
        return 1.0

    def _invert_cumulative(self, target: float) -> float:
        """Earliest in-period phase whose cumulative profile reaches ``target``.

        Only ``"burst"`` is modulated, and its piecewise-linear cumulative
        profile ``∫₀^phase m(s) ds`` inverts in closed form.
        """
        config = self.config
        on_rate = self._burst_on_rate()
        on_span = config.burst_duty * config.burst_period
        if target <= on_rate * on_span or config.burst_floor == 0.0:
            # With a fully quiet off phase the whole period's mass lives
            # in the on phase; the explicit floor==0 test keeps a ~1-ulp
            # shortfall of on_rate*on_span below the period from ever
            # reaching the off-phase division.
            return min(target / on_rate, on_span)
        return on_span + (target - on_rate * on_span) / config.burst_floor

    def _invert_hazard(self, hazard: float) -> float:
        """Map integrated-hazard time back to wall-clock time.

        The profile has mean 1, so each full period contributes exactly one
        period of hazard: split off the whole periods, invert the remainder
        inside one period.
        """
        period = self._pattern_period()
        full_periods = math.floor(hazard / period)
        remainder = hazard - full_periods * period
        return full_periods * period + self._invert_cumulative(remainder)

    def _skew_rates(self, count: int) -> Optional[np.ndarray]:
        """Per-rank arrival rates under the Zipf ``key_skew`` (None = uniform).

        Start gaps are drawn at rate ``arrival_rate * w_r``, so the expected
        *total* start span is ``sum(1 / (arrival_rate * w_r))``.  Normalising
        the weights to harmonic mean 1 (``mean(1/w) == 1``) keeps that span —
        and therefore the aggregate arrival rate — equal to the unskewed
        schedule's: skew redistributes traffic across keys, it does not add
        or remove load.  (A plain mean-1 normalisation would *stretch* the
        schedule by ``mean(1/w) > 1``, Jensen's inequality.)
        """
        skew = self.config.key_skew
        if not skew:
            return None
        weights = np.arange(1, count + 1, dtype=np.float64) ** (-skew)
        weights *= np.mean(1.0 / weights)
        return self.config.arrival_rate * weights

    def _build_schedule(self) -> List[_ScheduledKey]:
        rng = np.random.default_rng(self.config.seed)
        order = list(range(len(self.sequences)))
        rng.shuffle(order)
        rates = self._skew_rates(len(order))

        scheduled: List[_ScheduledKey] = []
        #: Arrival clock in integrated-hazard space: exponential gaps are
        #: accumulated here and mapped to wall-clock through the inverse
        #: cumulative rate profile (identity for the plain Poisson pattern,
        #: so the draws — and the schedule — are unchanged there).
        hazard_clock = 0.0
        modulated = self.config.pattern != "poisson"
        #: Min-heap of busy-slot release times (FIFO c-server queue).
        active_ends: List[float] = []
        for rank, index in enumerate(order):
            sequence = self.sequences[index]
            rate = self.config.arrival_rate if rates is None else float(rates[rank])
            hazard_clock += float(rng.exponential(1.0 / rate))
            start = self._invert_hazard(hazard_clock) if modulated else hazard_clock
            if self.config.max_active:
                # FIFO admission: free every slot released by the arrival
                # time, and when all slots are busy the key waits for — and
                # consumes — exactly ONE release.  The arrival clock itself
                # is untouched, so later keys keep their own Poisson gaps
                # instead of being serialised after the busy period (the old
                # behaviour released every delayed key in the same tick,
                # a synchronized burst).
                while active_ends and active_ends[0] <= start:
                    heapq.heappop(active_ends)
                if len(active_ends) >= self.config.max_active:
                    start = heapq.heappop(active_ends)
            entry = _ScheduledKey(
                key=sequence.key,
                label=int(sequence.label),
                start=start,
                offsets=self._relative_offsets(sequence),
                values=[item.value for item in sequence.items],
            )
            scheduled.append(entry)
            if self.config.max_active:
                heapq.heappush(active_ends, entry.end)
        return scheduled

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> Dict[Hashable, int]:
        """Ground-truth label per simulated key (for evaluation only)."""
        return {entry.key: entry.label for entry in self._schedule}

    @property
    def sequence_lengths(self) -> Dict[Hashable, int]:
        """Total number of items each simulated key will emit."""
        return {entry.key: len(entry.offsets) for entry in self._schedule}

    def events(self) -> Iterator[StreamEvent]:
        """Yield every arrival event in chronological order."""
        arrivals: List[Tuple[float, int, StreamEvent]] = []
        counter = 0
        for entry in self._schedule:
            for offset, value in zip(entry.offsets, entry.values):
                time = entry.start + offset
                event = StreamEvent(time=time, item=Item(entry.key, value, time))
                arrivals.append((time, counter, event))
                counter += 1
        arrivals.sort(key=lambda record: (record[0], record[1]))
        for _, _, event in arrivals:
            yield event

    def concurrency_profile(self, resolution: int = 50) -> List[Tuple[float, int]]:
        """Sampled ``(time, #active keys)`` curve of the simulated process."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if not self._schedule:
            return []
        horizon = max(entry.end for entry in self._schedule)
        start = min(entry.start for entry in self._schedule)
        points: List[Tuple[float, int]] = []
        for step in range(resolution + 1):
            time = start + (horizon - start) * step / resolution
            active = sum(1 for entry in self._schedule if entry.start <= time <= entry.end)
            points.append((time, active))
        return points

    def peak_concurrency(self) -> int:
        """Largest number of simultaneously active keys in the schedule."""
        boundaries: List[Tuple[float, int]] = []
        for entry in self._schedule:
            boundaries.append((entry.start, +1))
            boundaries.append((entry.end, -1))
        # Ends sort before starts at equal times, matching the scheduling rule
        # that a slot freed at time t can be reused by a key starting at t.
        boundaries.sort(key=lambda boundary: (boundary[0], boundary[1]))
        active = 0
        peak = 0
        for _, delta in boundaries:
            active += delta
            peak = max(peak, active)
        return peak


@dataclass
class MultiStreamConfig:
    """Knobs of the multi-stream arrival process.

    Attributes
    ----------
    num_streams:
        Number of independent stream ids the sequence pool is partitioned
        across (the cluster's routing/sharding unit).
    stream_skew:
        Zipf exponent of the per-stream traffic share (``0`` = uniform).
        With skew ``s``, stream ``r`` receives sequences with probability
        proportional to ``(r+1)^{-s}`` — a few *hot* streams carry most of
        the traffic, the shape that makes shard load-balancing interesting.
    stream_prefix:
        Stream ids are ``f"{stream_prefix}-{index}"``.
    simulator:
        Per-stream :class:`SimulatorConfig`; each stream derives its own
        seed from it, so streams are mutually independent but the whole
        process is deterministic.
    """

    num_streams: int = 4
    stream_skew: float = 0.0
    stream_prefix: str = "stream"
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)

    def __post_init__(self) -> None:
        if self.num_streams <= 0:
            raise ValueError("num_streams must be positive")
        if self.stream_skew < 0:
            raise ValueError("stream_skew must be non-negative")


class MultiStreamSimulator:
    """Many concurrent :class:`ArrivalSimulator` streams on one timeline.

    The serving cluster's traffic generator: the labelled sequence pool is
    partitioned across ``num_streams`` stream ids (Zipf-skewed when
    ``stream_skew`` is set), each stream replays its share as an independent
    arrival process, and :meth:`events` merges them into one chronological
    stream whose events carry their stream id in ``StreamEvent.source`` —
    exactly what :meth:`repro.serving.cluster.ServingCluster.submit` routes
    on.
    """

    def __init__(
        self,
        sequences: Sequence[KeyValueSequence],
        config: Optional[MultiStreamConfig] = None,
    ) -> None:
        if not sequences:
            raise ValueError("the simulator needs at least one source sequence")
        keys = [sequence.key for sequence in sequences]
        if len(set(keys)) != len(keys):
            raise ValueError("sequence keys must be unique across the pool")
        self.config = config or MultiStreamConfig()
        base = self.config.simulator
        rng = np.random.default_rng(base.seed)

        count = self.config.num_streams
        if self.config.stream_skew:
            shares = np.arange(1, count + 1, dtype=np.float64) ** (
                -self.config.stream_skew
            )
            shares /= shares.sum()
        else:
            shares = np.full(count, 1.0 / count)
        assignment = rng.choice(count, size=len(sequences), p=shares)

        self._simulators: Dict[str, ArrivalSimulator] = {}
        self._stream_of: Dict[Hashable, str] = {}
        for index in range(count):
            assigned = [
                sequence
                for sequence, stream in zip(sequences, assignment)
                if stream == index
            ]
            if not assigned:
                continue  # a cold stream drew no traffic at all
            stream_id = f"{self.config.stream_prefix}-{index}"
            # Distinct, deterministic per-stream seeds keep streams mutually
            # independent while the whole process stays reproducible.
            stream_config = replace(base, seed=base.seed + 7919 * (index + 1))
            self._simulators[stream_id] = ArrivalSimulator(assigned, stream_config)
            for sequence in assigned:
                self._stream_of[sequence.key] = stream_id

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def stream_ids(self) -> List[str]:
        """Stream ids that carry at least one sequence."""
        return list(self._simulators)

    @property
    def stream_of(self) -> Dict[Hashable, str]:
        """Stream id serving each key (for evaluation bookkeeping)."""
        return dict(self._stream_of)

    @property
    def stream_share(self) -> Dict[str, int]:
        """Number of sequences assigned to each stream (the traffic skew)."""
        return {
            stream_id: len(simulator.sequences)
            for stream_id, simulator in self._simulators.items()
        }

    @property
    def labels(self) -> Dict[Hashable, int]:
        """Ground-truth label per simulated key, across all streams."""
        labels: Dict[Hashable, int] = {}
        for simulator in self._simulators.values():
            labels.update(simulator.labels)
        return labels

    @property
    def sequence_lengths(self) -> Dict[Hashable, int]:
        """Total item count per simulated key, across all streams."""
        lengths: Dict[Hashable, int] = {}
        for simulator in self._simulators.values():
            lengths.update(simulator.sequence_lengths)
        return lengths

    def events(self) -> Iterator[StreamEvent]:
        """All streams merged chronologically, each event source-tagged."""

        def tagged(stream_id: str, simulator: ArrivalSimulator):
            for event in simulator.events():
                yield StreamEvent(time=event.time, item=event.item, source=stream_id)

        return merge_streams(
            [
                tagged(stream_id, simulator)
                for stream_id, simulator in self._simulators.items()
            ]
        )

    def peak_concurrency(self) -> int:
        """Sum of per-stream peaks — the cluster-wide worst-case load bound."""
        return sum(
            simulator.peak_concurrency() for simulator in self._simulators.values()
        )

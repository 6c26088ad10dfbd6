"""Tests for the live-arrival simulator."""

import numpy as np
import pytest

from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.serving.simulator import (
    ArrivalSimulator,
    MultiStreamConfig,
    MultiStreamSimulator,
    SimulatorConfig,
)

SPEC = ValueSpec(("v", "d"), (4, 2), 1)


def make_sequence(key, length, label=0):
    items = [Item(key, (i % 4, i % 2), float(i)) for i in range(length)]
    return KeyValueSequence(key, items, label)


def make_pool(num=6, length=5):
    return [make_sequence(f"k{i}", length, label=i % 2) for i in range(num)]


class TestSimulatorConfig:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            SimulatorConfig(arrival_rate=0.0)

    def test_invalid_gap_scale(self):
        with pytest.raises(ValueError):
            SimulatorConfig(gap_scale=-1.0)


class TestArrivalSimulator:
    def test_requires_sequences(self):
        with pytest.raises(ValueError):
            ArrivalSimulator([])

    def test_rejects_unlabelled_sequences(self):
        sequence = make_sequence("a", 3)
        sequence.label = None
        with pytest.raises(ValueError):
            ArrivalSimulator([sequence])

    def test_emits_every_item_in_chronological_order(self):
        pool = make_pool(num=5, length=4)
        simulator = ArrivalSimulator(pool, SimulatorConfig(seed=0))
        events = list(simulator.events())
        assert len(events) == 20
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_per_key_order_preserved(self):
        pool = make_pool(num=4, length=6)
        simulator = ArrivalSimulator(pool, SimulatorConfig(seed=1))
        seen = {}
        for event in simulator.events():
            seen.setdefault(event.key, []).append(event.time)
        for times in seen.values():
            assert times == sorted(times)
            assert len(times) == 6

    def test_labels_and_lengths_exposed(self):
        pool = make_pool(num=4, length=3)
        simulator = ArrivalSimulator(pool, SimulatorConfig(seed=0))
        assert simulator.labels == {"k0": 0, "k1": 1, "k2": 0, "k3": 1}
        assert simulator.sequence_lengths == {f"k{i}": 3 for i in range(4)}

    def test_deterministic_given_seed(self):
        pool = make_pool()
        first = [event.time for event in ArrivalSimulator(pool, SimulatorConfig(seed=5)).events()]
        second = [event.time for event in ArrivalSimulator(pool, SimulatorConfig(seed=5)).events()]
        assert first == second

    def test_max_active_bounds_concurrency(self):
        pool = make_pool(num=12, length=8)
        config = SimulatorConfig(arrival_rate=50.0, max_active=3, seed=0)
        simulator = ArrivalSimulator(pool, config)
        assert simulator.peak_concurrency() <= 3

    def test_higher_rate_gives_more_overlap(self):
        pool = make_pool(num=10, length=10)
        slow = ArrivalSimulator(pool, SimulatorConfig(arrival_rate=0.01, seed=0))
        fast = ArrivalSimulator(pool, SimulatorConfig(arrival_rate=100.0, seed=0))
        assert fast.peak_concurrency() >= slow.peak_concurrency()

    def test_concurrency_profile_shape(self):
        simulator = ArrivalSimulator(make_pool(), SimulatorConfig(seed=0))
        profile = simulator.concurrency_profile(resolution=10)
        assert len(profile) == 11
        assert all(active >= 0 for _, active in profile)
        assert max(active for _, active in profile) == simulator.peak_concurrency()


class TestMaxActiveHeadOfLine:
    """FIFO c-server semantics of the fixed max_active admission."""

    def _starts(self, simulator):
        return [entry.start for entry in simulator._schedule]

    def test_delayed_keys_consume_distinct_releases(self):
        """Every delayed key starts exactly at one earlier key's end, and no
        two delayed keys share a start — the old implementation piled the
        whole busy-period backlog onto the same release tick."""
        pool = make_pool(num=20, length=8)
        config = SimulatorConfig(arrival_rate=50.0, max_active=3, seed=0)
        simulator = ArrivalSimulator(pool, config)
        schedule = simulator._schedule
        ends = set()
        delayed_starts = []
        for rank, entry in enumerate(schedule):
            if rank >= config.max_active:
                delayed_starts.append(entry.start)
                assert entry.start in ends, "a delayed key must start on a release"
            ends.add(entry.end)
        assert len(set(delayed_starts)) == len(delayed_starts)

    def test_arrival_process_not_distorted_by_waiting(self):
        """Keys admitted without waiting keep the start times of the
        unbounded run: waiting must never advance the Poisson arrival clock
        (the head-of-line bug serialized every later arrival after a busy
        period)."""
        pool = make_pool(num=16, length=6)
        free = ArrivalSimulator(pool, SimulatorConfig(arrival_rate=5.0, seed=2))
        bounded = ArrivalSimulator(
            pool, SimulatorConfig(arrival_rate=5.0, max_active=2, seed=2)
        )
        for unbounded_entry, bounded_entry in zip(free._schedule, bounded._schedule):
            assert bounded_entry.key == unbounded_entry.key
            # A bounded start is either the undistorted arrival time or a
            # strictly later slot release — never earlier.
            assert bounded_entry.start >= unbounded_entry.start - 1e-12

    def test_still_bounds_concurrency(self):
        pool = make_pool(num=24, length=10)
        simulator = ArrivalSimulator(
            pool, SimulatorConfig(arrival_rate=100.0, max_active=4, seed=1)
        )
        assert simulator.peak_concurrency() <= 4


class TestKeySkew:
    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            SimulatorConfig(key_skew=-0.5)

    def test_zero_skew_matches_default(self):
        pool = make_pool(num=8, length=4)
        plain = ArrivalSimulator(pool, SimulatorConfig(seed=4))
        explicit = ArrivalSimulator(pool, SimulatorConfig(seed=4, key_skew=0.0))
        assert [e.time for e in plain.events()] == [e.time for e in explicit.events()]

    def test_hot_head_starts_faster_than_cold_tail(self):
        """Zipf skew compresses the hot head of the start order and spreads
        the cold tail: early-rank start gaps must be smaller on average."""
        pool = make_pool(num=40, length=3)
        simulator = ArrivalSimulator(
            pool, SimulatorConfig(arrival_rate=1.0, key_skew=2.0, seed=0)
        )
        starts = [entry.start for entry in simulator._schedule]
        gaps = np.diff(starts)
        head = gaps[: len(gaps) // 4]
        tail = gaps[-len(gaps) // 4 :]
        assert head.mean() < tail.mean() / 10

    def test_deterministic_given_seed(self):
        pool = make_pool(num=10, length=3)
        config = SimulatorConfig(key_skew=1.5, seed=9)
        first = [e.time for e in ArrivalSimulator(pool, config).events()]
        second = [e.time for e in ArrivalSimulator(pool, config).events()]
        assert first == second


class TestArrivalPatterns:
    """Burst start-rate modulation (mean-preserving by design)."""

    def _mean_start_gap(self, pattern, num=1500, **kwargs):
        pool = make_pool(num=num, length=2)
        simulator = ArrivalSimulator(
            pool, SimulatorConfig(arrival_rate=1.0, seed=11, pattern=pattern, **kwargs)
        )
        starts = sorted(entry.start for entry in simulator._schedule)
        return (starts[-1] - starts[0]) / (len(starts) - 1)

    def test_rejects_invalid_pattern_config(self):
        with pytest.raises(ValueError):
            SimulatorConfig(pattern="square")
        with pytest.raises(ValueError):
            SimulatorConfig(pattern="burst", burst_duty=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(pattern="burst", burst_floor=1.5)
        with pytest.raises(ValueError):
            SimulatorConfig(pattern="burst", burst_period=0.0)
        with pytest.raises(ValueError, match="unknown arrival pattern"):
            SimulatorConfig(pattern="diurnal")

    def test_poisson_pattern_matches_legacy_schedule(self):
        """pattern="poisson" must reproduce the unmodulated schedule draw for
        draw (the hazard-space clock is the identity there)."""
        pool = make_pool(num=12, length=4)
        legacy = ArrivalSimulator(pool, SimulatorConfig(seed=5))
        explicit = ArrivalSimulator(pool, SimulatorConfig(seed=5, pattern="poisson"))
        assert [e.start for e in legacy._schedule] == [
            e.start for e in explicit._schedule
        ]

    @pytest.mark.parametrize(
        "pattern,kwargs",
        [
            ("burst", {}),
            ("burst", {"burst_floor": 0.4, "burst_duty": 0.5}),
        ],
    )
    def test_mean_rate_preserved(self, pattern, kwargs):
        """The modulation profile has mean 1 over its period, so the mean
        start gap must match the nominal 1/arrival_rate closely."""
        baseline = self._mean_start_gap("poisson")
        modulated = self._mean_start_gap(pattern, **kwargs)
        assert modulated == pytest.approx(1.0, rel=0.05)
        assert modulated == pytest.approx(baseline, rel=0.05)

    def test_burst_confines_starts_to_on_windows(self):
        """With a fully quiet off phase every key start must land inside the
        duty window of its period."""
        pool = make_pool(num=400, length=2)
        config = SimulatorConfig(
            arrival_rate=1.0, seed=3, pattern="burst",
            burst_period=16.0, burst_duty=0.25, burst_floor=0.0,
        )
        simulator = ArrivalSimulator(pool, config)
        for entry in simulator._schedule:
            assert entry.start % 16.0 <= 4.0 + 1e-9

    def test_burst_floor_keeps_off_phase_alive_but_sparse(self):
        pool = make_pool(num=2000, length=2)
        config = SimulatorConfig(
            arrival_rate=1.0, seed=9, pattern="burst",
            burst_period=16.0, burst_duty=0.25, burst_floor=0.2,
        )
        simulator = ArrivalSimulator(pool, config)
        on = sum(1 for e in simulator._schedule if e.start % 16.0 <= 4.0)
        off = len(simulator._schedule) - on
        assert off > 0  # the floor keeps some off-phase traffic
        # on-phase rate is (1 - 0.75*0.2)/0.25 = 3.4x nominal vs 0.2x off:
        # with equal-ish span shares of 1:3 the on-phase still dominates.
        assert on > 4 * off

    def test_modulated_rate_exposes_the_profile(self):
        pool = make_pool(num=4, length=2)
        config = SimulatorConfig(
            arrival_rate=2.0, seed=0, pattern="burst",
            burst_period=10.0, burst_duty=0.5, burst_floor=0.0,
        )
        simulator = ArrivalSimulator(pool, config)
        assert simulator.modulated_rate(1.0) == pytest.approx(4.0)  # on: 2x rate
        assert simulator.modulated_rate(7.0) == 0.0  # off phase

    def test_deterministic_given_seed(self):
        pool = make_pool(num=30, length=3)
        config = SimulatorConfig(seed=13, pattern="burst", burst_floor=0.3)
        first = [e.time for e in ArrivalSimulator(pool, config).events()]
        second = [e.time for e in ArrivalSimulator(pool, config).events()]
        assert first == second

    def test_patterns_compose_with_key_skew_and_max_active(self):
        pool = make_pool(num=40, length=6)
        config = SimulatorConfig(
            arrival_rate=10.0, seed=2, pattern="burst", key_skew=1.0, max_active=4
        )
        simulator = ArrivalSimulator(pool, config)
        assert simulator.peak_concurrency() <= 4
        times = [event.time for event in simulator.events()]
        assert times == sorted(times)

    def test_multi_stream_patterns_flow_through(self):
        """MultiStreamSimulator propagates the pattern to every stream; the
        merged timeline stays chronological, source-tagged, and bursty."""
        pool = make_pool(num=240, length=2)
        config = MultiStreamConfig(
            num_streams=4,
            simulator=SimulatorConfig(
                arrival_rate=1.0, seed=5, pattern="burst",
                burst_period=16.0, burst_duty=0.25, burst_floor=0.0,
            ),
        )
        simulator = MultiStreamSimulator(pool, config)
        events = list(simulator.events())
        assert len(events) == 480
        times = [event.time for event in events]
        assert times == sorted(times)
        # every key's start (its first event) obeys the duty window
        seen = set()
        for event in events:
            if event.key not in seen:
                seen.add(event.key)
                assert event.time % 16.0 <= 4.0 + 1e-9


class TestMultiStreamSimulator:
    def test_partition_is_complete_and_disjoint(self):
        pool = make_pool(num=24, length=3)
        simulator = MultiStreamSimulator(pool, MultiStreamConfig(num_streams=4))
        stream_of = simulator.stream_of
        assert set(stream_of) == {sequence.key for sequence in pool}
        assert sum(simulator.stream_share.values()) == len(pool)

    def test_events_are_source_tagged_and_chronological(self):
        pool = make_pool(num=12, length=4)
        simulator = MultiStreamSimulator(pool, MultiStreamConfig(num_streams=3))
        events = list(simulator.events())
        assert len(events) == 12 * 4
        times = [event.time for event in events]
        assert times == sorted(times)
        stream_of = simulator.stream_of
        for event in events:
            assert event.source == stream_of[event.key]

    def test_deterministic_given_seed(self):
        pool = make_pool(num=10, length=3)
        config = MultiStreamConfig(num_streams=3, simulator=SimulatorConfig(seed=7))
        first = [(e.time, e.key, e.source) for e in MultiStreamSimulator(pool, config).events()]
        second = [(e.time, e.key, e.source) for e in MultiStreamSimulator(pool, config).events()]
        assert first == second

    def test_stream_skew_concentrates_traffic(self):
        pool = make_pool(num=60, length=2)
        uniform = MultiStreamSimulator(
            pool, MultiStreamConfig(num_streams=6, stream_skew=0.0)
        )
        skewed = MultiStreamSimulator(
            pool, MultiStreamConfig(num_streams=6, stream_skew=2.0)
        )
        assert max(skewed.stream_share.values()) > max(uniform.stream_share.values())

    def test_labels_and_lengths_union(self):
        pool = make_pool(num=9, length=5)
        simulator = MultiStreamSimulator(pool, MultiStreamConfig(num_streams=3))
        assert simulator.labels == {sequence.key: sequence.label for sequence in pool}
        assert simulator.sequence_lengths == {sequence.key: 5 for sequence in pool}

    def test_rejects_duplicate_keys(self):
        pool = [make_sequence("dup", 3), make_sequence("dup", 4)]
        with pytest.raises(ValueError, match="unique"):
            MultiStreamSimulator(pool)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MultiStreamConfig(num_streams=0)
        with pytest.raises(ValueError):
            MultiStreamConfig(stream_skew=-1.0)

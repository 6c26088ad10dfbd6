"""Tests for the serving-side monitoring aggregators."""

import pytest

from repro.serving.engine import Decision
from repro.serving.monitoring import (
    DecisionMonitor,
    HistogramSnapshot,
    Log2Histogram,
    MonitorSnapshot,
    ShardMonitor,
    ThroughputMeter,
)
from tests.serving.backends import backend


def make_decision(key, predicted, observations=3, confidence=0.8, halted=True):
    return Decision(
        key=key,
        predicted=predicted,
        confidence=confidence,
        observations=observations,
        decision_time=float(observations),
        halted_by_policy=halted,
        window_truncated=False,
    )


class TestDecisionMonitor:
    def test_accuracy_and_earliness(self):
        monitor = DecisionMonitor(labels={"a": 1, "b": 0}, sequence_lengths={"a": 10, "b": 10})
        monitor.observe(make_decision("a", 1, observations=2))
        monitor.observe(make_decision("b", 1, observations=5))
        assert monitor.accuracy == pytest.approx(0.5)
        assert monitor.earliness == pytest.approx((0.2 + 0.5) / 2)
        assert 0.0 < monitor.harmonic_mean < 1.0

    def test_unlabelled_decisions_only_count_towards_volume(self):
        monitor = DecisionMonitor(labels={"a": 1})
        monitor.observe(make_decision("a", 1))
        monitor.observe(make_decision("unknown", 0))
        assert monitor.num_decisions == 2
        assert monitor.num_with_labels == 1
        assert monitor.accuracy == pytest.approx(1.0)

    def test_per_class_tallies(self):
        monitor = DecisionMonitor(labels={"a": 0, "b": 0, "c": 1})
        monitor.observe_all(
            [make_decision("a", 0), make_decision("b", 1), make_decision("c", 1)]
        )
        assert monitor.per_class[0].decided == 2
        assert monitor.per_class[0].accuracy == pytest.approx(0.5)
        assert monitor.per_class[1].accuracy == pytest.approx(1.0)

    def test_policy_halt_fraction(self):
        monitor = DecisionMonitor()
        monitor.observe(make_decision("a", 0, halted=True))
        monitor.observe(make_decision("b", 0, halted=False))
        assert monitor.policy_halt_fraction == pytest.approx(0.5)

    def test_records_built_from_labels(self):
        monitor = DecisionMonitor(labels={"a": 2}, sequence_lengths={"a": 8})
        monitor.observe(make_decision("a", 2, observations=4))
        records = monitor.records()
        assert len(records) == 1
        assert records[0].correct
        assert records[0].earliness == pytest.approx(0.5)

    def test_report_contains_key_lines(self):
        monitor = DecisionMonitor(labels={"a": 0}, sequence_lengths={"a": 4})
        monitor.observe(make_decision("a", 0, observations=1))
        report = monitor.report()
        assert "accuracy" in report
        assert "earliness" in report
        assert "class 0" in report

    def test_empty_monitor_is_all_zero(self):
        monitor = DecisionMonitor()
        assert monitor.accuracy == 0.0
        assert monitor.earliness == 0.0
        assert monitor.mean_observations == 0.0


class TestMergeAndSnapshot:
    """Per-shard monitors must aggregate into an exact cluster-level view."""

    def _shard_monitors(self):
        labels = {"a": 1, "b": 0, "c": 1, "d": 0}
        lengths = {"a": 10, "b": 10, "c": 5, "d": 8}
        shard0 = DecisionMonitor(labels=labels, sequence_lengths=lengths)
        shard1 = DecisionMonitor(labels=labels, sequence_lengths=lengths)
        shard0.observe(make_decision("a", 1, observations=2))
        shard0.observe(make_decision("b", 1, observations=5, halted=False))
        shard1.observe(make_decision("c", 1, observations=3))
        shard1.observe(make_decision("d", 0, observations=4))
        shard1.observe(make_decision("unlabelled", 0))
        return labels, lengths, shard0, shard1

    def _global_monitor(self):
        labels, lengths, shard0, shard1 = self._shard_monitors()
        monitor = DecisionMonitor(labels=labels, sequence_lengths=lengths)
        monitor.observe(make_decision("a", 1, observations=2))
        monitor.observe(make_decision("b", 1, observations=5, halted=False))
        monitor.observe(make_decision("c", 1, observations=3))
        monitor.observe(make_decision("d", 0, observations=4))
        monitor.observe(make_decision("unlabelled", 0))
        return monitor

    def test_merged_equals_single_global_monitor(self):
        _, _, shard0, shard1 = self._shard_monitors()
        merged = DecisionMonitor.merged([shard0, shard1])
        reference = self._global_monitor()
        assert merged.num_decisions == reference.num_decisions
        assert merged.num_with_labels == reference.num_with_labels
        assert merged.accuracy == pytest.approx(reference.accuracy)
        assert merged.earliness == pytest.approx(reference.earliness)
        assert merged.harmonic_mean == pytest.approx(reference.harmonic_mean)
        assert merged.mean_confidence == pytest.approx(reference.mean_confidence)
        assert merged.policy_halt_fraction == pytest.approx(
            reference.policy_halt_fraction
        )
        for label in reference.per_class:
            assert merged.per_class[label].decided == reference.per_class[label].decided
            assert merged.per_class[label].correct == reference.per_class[label].correct
        assert len(merged.records()) == len(reference.records())

    def test_merge_returns_self_and_chains(self):
        _, _, shard0, shard1 = self._shard_monitors()
        merged = DecisionMonitor().merge(shard0).merge(shard1)
        assert merged.num_decisions == 5

    def test_merge_shares_no_mutable_state(self):
        _, _, shard0, shard1 = self._shard_monitors()
        merged = DecisionMonitor.merged([shard0, shard1])
        before = shard0.per_class[1].decided
        merged.observe(make_decision("a", 0))
        merged.per_class[1].decided += 100
        assert shard0.per_class[1].decided == before
        assert shard0.num_decisions == 2
        # ...and the sources keep observing without affecting the merge.
        shard1.observe(make_decision("x", 0))
        assert merged.num_decisions == 6  # only the decision observed above

    def test_merged_records_are_copies(self):
        _, _, shard0, shard1 = self._shard_monitors()
        merged = DecisionMonitor.merged([shard0, shard1])
        merged_record = merged.records()[0]
        original = shard0.records()[0]
        assert merged_record == original
        merged_record.predicted = 99
        assert shard0.records()[0].predicted != 99

    def test_snapshot_is_immutable_summary(self):
        _, _, shard0, _ = self._shard_monitors()
        snapshot = shard0.snapshot()
        assert isinstance(snapshot, MonitorSnapshot)
        assert snapshot.num_decisions == 2
        assert snapshot.accuracy == pytest.approx(shard0.accuracy)
        assert snapshot.per_class[1] == (1, 1)
        with pytest.raises(AttributeError):
            snapshot.num_decisions = 7
        # Later observations do not retroactively change the snapshot.
        shard0.observe(make_decision("c", 1))
        assert snapshot.num_decisions == 2


class TestLog2Histogram:
    def test_empty_histogram_reads_zero(self):
        histogram = Log2Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(0.5) == 0.0
        snap = histogram.snapshot()
        assert snap.minimum == 0.0 and snap.maximum == 0.0
        assert snap.buckets == {}

    def test_observe_tracks_count_sum_min_max(self):
        histogram = Log2Histogram()
        for value in (0.5, 2.0, 8.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(10.5)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 8.0
        assert histogram.mean == pytest.approx(3.5)

    def test_bucketing_is_power_of_two(self):
        # 3.0 falls in the (2, 4] bucket: its upper edge is 4
        index = Log2Histogram.bucket_of(3.0)
        assert Log2Histogram.bucket_upper_edge(index) == 4.0
        # exact powers of two land in their own bucket, not the next
        assert Log2Histogram.bucket_upper_edge(Log2Histogram.bucket_of(4.0)) == 4.0

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        histogram = Log2Histogram()
        histogram.observe(0.0)
        histogram.observe(1e12)
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Log2Histogram().observe(-1.0)

    def test_percentile_upper_edge_contract(self):
        histogram = Log2Histogram()
        for _ in range(99):
            histogram.observe(1.0)
        histogram.observe(100.0)
        assert histogram.percentile(0.5) == 1.0
        # p100 lands in the 100.0 bucket whose edge is 128, capped at max
        assert histogram.percentile(1.0) == 100.0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)

    def test_merge_equals_single_global_histogram(self):
        left, right, reference = Log2Histogram(), Log2Histogram(), Log2Histogram()
        for index, value in enumerate([0.1, 0.4, 3.0, 7.5, 20.0, 900.0]):
            (left if index % 2 else right).observe(value)
            reference.observe(value)
        merged = Log2Histogram.merged([left, right])
        assert merged.counts == reference.counts
        assert merged.count == reference.count
        assert merged.total == pytest.approx(reference.total)
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum
        # the sources stay untouched
        assert left.count + right.count == merged.count

    def test_snapshot_is_immutable_and_detached(self):
        histogram = Log2Histogram()
        histogram.observe(2.0)
        snap = histogram.snapshot()
        assert isinstance(snap, HistogramSnapshot)
        histogram.observe(1000.0)
        assert snap.count == 1  # unaffected by later observations
        with pytest.raises(AttributeError):
            snap.count = 7

    def test_summary_keys(self):
        histogram = Log2Histogram()
        histogram.observe(1.5)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}


class TestShardMonitor:
    def test_observe_round_updates_both_gauges(self):
        monitor = ShardMonitor()
        monitor.observe_round(queue_depth=10, rows=4, elapsed_ms=2.5)
        monitor.observe_round(queue_depth=6, rows=2, elapsed_ms=1.5)
        assert monitor.rounds == 2
        assert monitor.rows == 6
        assert monitor.round_latency_ms.count == 2
        assert monitor.queue_depth.maximum == 10.0

    def test_merged_equals_single_global_monitor(self):
        shard_a, shard_b, reference = ShardMonitor(), ShardMonitor(), ShardMonitor()
        rounds = [(10, 4, 2.0), (3, 3, 1.0), (50, 16, 8.0), (1, 1, 0.25)]
        for index, (depth, rows, elapsed) in enumerate(rounds):
            (shard_a if index % 2 else shard_b).observe_round(depth, rows, elapsed)
            reference.observe_round(depth, rows, elapsed)
        merged = ShardMonitor.merged([shard_a, shard_b])
        assert merged.rounds == reference.rounds
        assert merged.rows == reference.rows
        assert merged.round_latency_ms.counts == reference.round_latency_ms.counts
        assert merged.queue_depth.counts == reference.queue_depth.counts
        # sources unchanged
        assert shard_a.rounds + shard_b.rounds == merged.rounds

    def test_snapshot_summarises_both_histograms(self):
        monitor = ShardMonitor()
        monitor.observe_round(queue_depth=8, rows=8, elapsed_ms=3.0)
        snap = monitor.snapshot()
        assert snap.rounds == 1 and snap.rows == 8
        assert snap.round_latency_ms.count == 1
        assert snap.queue_depth.maximum == 8.0


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestClusterStatsSurfacing:
    """ServingCluster.stats() publishes the merged per-shard telemetry."""

    def test_stats_round_telemetry(self, executor):
        import numpy as np

        from repro.core.config import KVECConfig
        from repro.core.model import KVEC
        from repro.data.items import Item, ValueSpec
        from repro.data.stream import StreamEvent
        from repro.serving.cluster import ClusterConfig, ServingCluster
        from repro.serving.engine import EngineConfig

        spec = ValueSpec(("size", "direction"), (8, 2), 1)
        model = KVEC(
            spec,
            num_classes=3,
            config=KVECConfig(
                d_model=12, num_blocks=1, num_heads=2, ffn_hidden=16,
                d_state=16, dropout=0.0, encoding="rotary", seed=0,
            ),
        )
        rng = np.random.default_rng(0)
        cluster = ServingCluster(
            model,
            spec,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=8, halt_threshold=0.9),
            ),
        )
        clock = 0.0
        for _ in range(60):
            clock += 1.0
            event = StreamEvent(
                time=clock,
                item=Item(f"k{rng.integers(3)}", (int(rng.integers(8)), int(rng.integers(2))), clock),
                source=f"stream-{rng.integers(5)}",
            )
            cluster.submit(event)
        cluster.drain()
        stats = cluster.stats()
        cluster.close()
        assert stats["rounds"] > 0
        assert stats["round_latency_ms"]["count"] == stats["rounds"]
        assert stats["round_queue_depth"]["count"] == stats["rounds"]
        assert len(stats["shard_monitors"]) == 2
        assert (
            sum(snap["rounds"] for snap in stats["shard_monitors"]) == stats["rounds"]
        )
        # Realized widths: every drained row is in one round of at most
        # batch_size rows.
        rows = sum(snap["rows"] for snap in stats["shard_monitors"])
        assert rows == stats["drained"]
        assert rows <= 4 * stats["rounds"]

    def test_stats_and_health_are_json_serializable(self, executor):
        """The network tier ships stats()/health() verbatim as JSON bodies."""
        import json

        import numpy as np

        from repro.core.config import KVECConfig
        from repro.core.model import KVEC
        from repro.data.items import Item, ValueSpec
        from repro.data.stream import StreamEvent
        from repro.serving.cluster import ClusterConfig, ServingCluster
        from repro.serving.engine import EngineConfig

        spec = ValueSpec(("size", "direction"), (8, 2), 1)
        model = KVEC(
            spec,
            num_classes=3,
            config=KVECConfig(
                d_model=12, num_blocks=1, num_heads=2, ffn_hidden=16,
                d_state=16, dropout=0.0, encoding="rotary", seed=0,
            ),
        )
        rng = np.random.default_rng(1)
        cluster = ServingCluster(
            model,
            spec,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=8, halt_threshold=0.9),
            ),
        )
        clock = 0.0
        for _ in range(40):
            clock += 1.0
            event = StreamEvent(
                time=clock,
                item=Item(f"k{rng.integers(3)}", (int(rng.integers(8)), int(rng.integers(2))), clock),
                source=f"stream-{rng.integers(4)}",
            )
            cluster.submit(event)
        cluster.drain()
        for payload in (cluster.stats(), cluster.health()):
            # round-trips without custom encoders AND without loss: every
            # histogram/monitor snapshot must already be plain dict/list
            assert json.loads(json.dumps(payload)) == payload
        cluster.close()

    def test_throughput_rates_slide_over_sixty_seconds(self, executor, monkeypatch):
        """``stats()["items_per_s"]`` is a sliding rate over the last
        ``STATS_WINDOW_S`` (60 s) of wall clock: arrivals 45 s old still
        count, arrivals over 60 s old have aged out."""
        import time
        from types import SimpleNamespace

        from repro.core.config import KVECConfig
        from repro.core.model import KVEC
        from repro.data.items import Item, ValueSpec
        from repro.data.stream import StreamEvent
        from repro.serving import cluster as cluster_module
        from repro.serving.cluster import ClusterConfig, ServingCluster

        assert cluster_module.STATS_WINDOW_S == 60.0
        now = [1000.0]
        monkeypatch.setattr(
            cluster_module,
            "time",
            SimpleNamespace(monotonic=lambda: now[0], perf_counter=time.perf_counter),
        )
        spec = ValueSpec(("size", "direction"), (8, 2), 1)
        model = KVEC(
            spec,
            num_classes=3,
            config=KVECConfig(
                d_model=12, num_blocks=1, num_heads=2, ffn_hidden=16,
                d_state=16, dropout=0.0, encoding="rotary", seed=0,
            ),
        )
        cluster = ServingCluster(
            model, spec, ClusterConfig(**backend(executor), num_shards=2, auto_drain=False)
        )
        for second in range(30):  # one arrival a second
            cluster.submit(
                StreamEvent(
                    time=float(second),
                    item=Item("k0", (second % 8, 0), float(second)),
                    source=f"stream-{second % 3}",
                )
            )
            now[0] += 1.0
        assert cluster.stats()["items_per_s"] == pytest.approx(29 / 30)
        now[0] += 44.0  # the last arrival is 45 s old
        assert cluster.stats()["items_per_s"] > 0.0
        now[0] += 16.0  # every arrival is over 60 s old
        assert cluster.stats()["items_per_s"] == 0.0
        cluster.close()


class TestThroughputMeter:
    def test_rate_computation(self):
        meter = ThroughputMeter()
        meter.tick(0.0, 0)
        meter.tick(2.0, 10)
        meter.tick(4.0, 10)
        assert meter.items == 20
        assert meter.elapsed == pytest.approx(4.0)
        assert meter.rate == pytest.approx(5.0)

    def test_single_checkpoint_has_zero_rate(self):
        meter = ThroughputMeter()
        meter.tick(1.0, 5)
        assert meter.rate == 0.0

    def test_time_must_be_monotone(self):
        meter = ThroughputMeter()
        meter.tick(2.0)
        with pytest.raises(ValueError):
            meter.tick(1.0)

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter().tick(0.0, -1)

    def test_sliding_window_tracks_recent_rate(self):
        meter = ThroughputMeter(window=4.0)
        # a burst long in the past...
        meter.tick(0.0, 0)
        meter.tick(1.0, 100)
        # ...followed by a slow recent trickle
        for t in range(10, 20):
            meter.tick(float(t), 1)
        # unbounded average would be ~5.8/s; the window only sees the trickle
        assert meter.rate == pytest.approx(1.0, rel=0.5)
        assert meter.elapsed <= 4.0 + 1.0  # boundary checkpoint may straddle

    def test_window_rate_decays_with_idle_zero_ticks(self):
        meter = ThroughputMeter(window=2.0)
        meter.tick(0.0, 0)
        meter.tick(1.0, 10)
        busy = meter.rate
        assert busy > 0
        meter.tick(10.0, 0)  # a stats-style idle tick far later
        assert meter.rate < busy

    def test_unbounded_meter_keeps_lifetime_average(self):
        meter = ThroughputMeter()
        meter.tick(0.0, 0)
        meter.tick(1.0, 100)
        for t in range(10, 20):
            meter.tick(float(t), 1)
        assert meter.rate == pytest.approx(110 / 19.0)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="window"):
            ThroughputMeter(window=-1.0)
        with pytest.raises(ValueError, match="granularity"):
            ThroughputMeter(window=1.0, granularity=0.0)

    def test_granularity_bounds_checkpoint_count(self):
        """The hot-path configuration: per-event ticks must not retain one
        checkpoint per event (memory bound is ~window/granularity)."""
        meter = ThroughputMeter(window=10.0, granularity=1.0)
        t = 0.0
        for _ in range(10_000):
            t += 0.001  # 1000 ticks per granularity span
            meter.tick(t)
        assert len(meter._checkpoints) <= 10.0 / 1.0 + 2
        assert meter.items == 10_000
        # rate over the retained window stays ~1000 items per time unit
        assert meter.rate == pytest.approx(1000.0, rel=0.25)

    def test_granularity_keeps_sub_span_bursts_measurable(self):
        meter = ThroughputMeter(window=60.0, granularity=0.25)
        meter.tick(0.0, 0)
        for i in range(50):
            meter.tick(0.001 * (i + 1))
        # the burst fits inside one granularity span yet first/latest ticks
        # survive as distinct checkpoints, so the rate is positive
        assert meter.rate > 0.0

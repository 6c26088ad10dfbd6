"""Lockstep parity and behaviour suite for the sharded serving cluster.

The contract under test: a :class:`ServingCluster` — any shard count, any
round width — must produce decision-for-decision identical output to one
sequential :class:`OnlineClassificationEngine` per stream, including window
evictions, mid-stream drains, flush and snapshot/restore round trips.  On
top of parity, the suite covers the cluster-only machinery: hash routing,
bounded-queue admission (a full queue serves one round of its shard, then
admits), the shard-ordered merge of cluster-level drain / flush, and the
batching counters.
"""

import math

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.embeddings import stable_key_slot
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving.cluster import ClusterConfig, OutOfOrderEventError, ServingCluster
from repro.serving.engine import EngineConfig, OnlineClassificationEngine, StreamSession
from repro.serving.faults import FaultInjector, FaultSpec
from repro.serving.sinks import BufferedSink
from repro.serving.supervisor import SupervisorConfig
from tests.serving.backends import backend

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

TOLERANCE = 1e-9

ENCODINGS = ("absolute", "rotary")


def make_model(encoding: str = "rotary", seed: int = 3) -> KVEC:
    config = KVECConfig(
        d_model=12,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=20,
        d_state=16,
        dropout=0.0,
        encoding=encoding,
        seed=seed,
    )
    return KVEC(SPEC, num_classes=3, config=config)


def multi_stream_events(seed: int, num_events: int = 300, num_streams: int = 6, num_keys: int = 4):
    """A random source-tagged multi-stream event sequence."""
    rng = np.random.default_rng(seed)
    streams = [f"stream-{i}" for i in range(num_streams)]
    events = []
    clock = 0.0
    for _ in range(num_events):
        clock += 1.0
        stream_id = streams[int(rng.integers(num_streams))]
        item = Item(
            f"k{rng.integers(num_keys)}",
            (int(rng.integers(8)), int(rng.integers(2))),
            clock,
        )
        events.append(StreamEvent(time=clock, item=item, source=stream_id))
    return streams, events


def engine_config(**overrides) -> EngineConfig:
    kwargs = dict(window_items=7, halt_threshold=0.5, reencode_every=2)
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def reference_decisions(model, streams, events, flush_positions=(), **overrides):
    """Per-stream ordered decision lists from one sequential engine each.

    After each event at one of ``flush_positions``, that event's stream is
    force-decided, as ``cluster.flush_stream`` does at the same point."""
    engines = {
        stream_id: OnlineClassificationEngine(model, SPEC, engine_config(**overrides))
        for stream_id in streams
    }
    ordered = {stream_id: [] for stream_id in streams}
    for position, event in enumerate(events):
        ordered[event.source].extend(engines[event.source].offer(event))
        if position in flush_positions:
            ordered[event.source].extend(engines[event.source].flush())
    for stream_id, engine in engines.items():
        ordered[stream_id].extend(engine.flush())
    return engines, ordered


def by_stream(stream_decisions, streams):
    grouped = {stream_id: [] for stream_id in streams}
    for stream_decision in stream_decisions:
        grouped[stream_decision.stream_id].append(stream_decision.decision)
    return grouped


def assert_stream_parity(actual, expected):
    """Per-stream decision sequences must match the sequential reference."""
    assert set(actual) == set(expected)
    for stream_id, reference in expected.items():
        got = actual[stream_id]
        assert [d.key for d in got] == [d.key for d in reference], stream_id
        for mine, ref in zip(got, reference):
            assert mine.predicted == ref.predicted, (stream_id, mine.key)
            assert mine.confidence == pytest.approx(ref.confidence, abs=TOLERANCE)
            assert mine.observations == ref.observations, (stream_id, mine.key)
            assert mine.decision_time == ref.decision_time, (stream_id, mine.key)
            assert mine.halted_by_policy == ref.halted_by_policy, (stream_id, mine.key)
            assert mine.window_truncated == ref.window_truncated, (stream_id, mine.key)


class TestClusterParity:
    """Cluster output == one sequential single-stream engine per stream."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_batched_parity_with_evictions_and_flush(self, encoding, num_shards):
        model = make_model(encoding)
        streams, events = multi_stream_events(seed=42)
        _, expected = reference_decisions(model, streams, events)

        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                num_shards=num_shards,
                batch_size=4,
                engine=engine_config(),
            ),
        )
        emitted = cluster.consume(events)
        emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)
        # The tiny window guarantees the parity run actually covered
        # evictions (and, for rotary, the zero-rebuild ring): some window
        # holds fewer items than its stream delivered.
        assert any(
            len(session.window) < sum(session.observations.values())
            for _, session in cluster.sessions()
        )
        if encoding == "rotary":
            assert all(
                session._incremental.rebuilds == 0 for _, session in cluster.sessions()
            )

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_serial_encoding_parity(self, encoding, executor):
        """Rounds of one arrival encode every row alone and must serve
        identically."""
        model = make_model(encoding)
        streams, events = multi_stream_events(seed=7)
        _, expected = reference_decisions(model, streams, events)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=1,
                engine=engine_config(),
            ),
        ) as cluster:
            emitted = cluster.consume(events)
            emitted.extend(cluster.flush())
            assert cluster.stats()["batch_rounds"] == 0
        assert_stream_parity(by_stream(emitted, streams), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_mid_stream_drain_matches_reference_prefix(self, executor):
        """After an explicit drain the per-session decisions equal the
        reference decisions at the same stream positions."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=11, num_events=200)
        cut = 120
        engines = {
            stream_id: OnlineClassificationEngine(model, SPEC, engine_config())
            for stream_id in streams
        }
        for event in events[:cut]:
            engines[event.source].offer(event)

        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=8, engine=engine_config()
            ),
        ) as cluster:
            cluster.consume(events[:cut])
            cluster.drain()
            for stream_id in streams:
                session = cluster.session(stream_id)
                reference = engines[stream_id]
                got = {} if session is None else session.decisions
                assert set(got) == set(reference.decisions), stream_id
                for key, decision in reference.decisions.items():
                    assert got[key].predicted == decision.predicted

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_interleaved_flush_stream_parity(self, executor):
        """``cluster.flush_stream`` mid-stream (drain the stream's shard, then
        force-decide that stream only) matches the stream's engine flushed at
        the same position; the other streams keep serving untouched."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=5, num_events=160, num_streams=4)
        flush_positions = {40, 90, 130}
        _, expected = reference_decisions(
            model, streams, events, flush_positions=flush_positions
        )
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        ) as cluster:
            emitted = []
            forced = 0
            for position, event in enumerate(events):
                emitted.extend(cluster.submit(event).decisions)
                if position in flush_positions:
                    flushed = cluster.flush_stream(event.source)
                    forced += sum(
                        d.stream_id == event.source and not d.decision.halted_by_policy
                        for d in flushed
                    )
                    emitted.extend(flushed)
            emitted.extend(cluster.flush())
        # The positions must actually force a decision mid-stream.
        assert forced > 0
        assert_stream_parity(by_stream(emitted, streams), expected)


class TestSnapshotRestore:
    def test_restore_replays_identically(self):
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=23, num_events=240)
        cut = 140
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(num_shards=2, batch_size=4, engine=engine_config()),
        )
        cluster.consume(events[:cut])
        snapshot = cluster.snapshot()

        first = cluster.consume(events[cut:])
        first.extend(cluster.flush())

        cluster.restore(snapshot)
        second = cluster.consume(events[cut:])
        second.extend(cluster.flush())

        assert [(d.stream_id, d.decision.key) for d in first] == [
            (d.stream_id, d.decision.key) for d in second
        ]
        for a, b in zip(first, second):
            assert a.decision.predicted == b.decision.predicted
            assert a.decision.confidence == b.decision.confidence
            assert a.decision.observations == b.decision.observations

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_snapshot_does_not_disturb_serving(self, executor):
        model = make_model("absolute")
        streams, events = multi_stream_events(seed=29, num_events=160)

        def serve(with_snapshot):
            with ServingCluster(
                model,
                SPEC,
                ClusterConfig(
                    **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
                ),
            ) as cluster:
                emitted = []
                for position, event in enumerate(events):
                    emitted.extend(cluster.submit(event).decisions)
                    if with_snapshot and position == 80:
                        cluster.snapshot()
                emitted.extend(cluster.flush())
            return [(d.stream_id, d.decision.key, d.decision.predicted) for d in emitted]

        assert serve(False) == serve(True)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_snapshot_reusable_twice(self, executor):
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=31, num_events=120)
        with ServingCluster(
            model, SPEC, ClusterConfig(**backend(executor), num_shards=2, engine=engine_config())
        ) as cluster:
            cluster.consume(events[:60])
            snapshot = cluster.snapshot()
            results = []
            for _ in range(2):
                cluster.restore(snapshot)
                emitted = cluster.consume(events[60:])
                emitted.extend(cluster.flush())
                results.append([(d.stream_id, d.decision.key) for d in emitted])
        assert results[0] == results[1]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_pickled_snapshot_restore_shares_live_weights(self, executor):
        """restore() after a pickle round-trip (serialized failover) must
        re-attach the cluster's live model/spec/config to every session —
        pickle severs the deepcopy memo sharing, and without the re-attach
        each session would own a private weight copy — and the replay must
        be bytes-identical to restoring the in-memory snapshot."""
        import pickle

        model = make_model("rotary")
        streams, events = multi_stream_events(seed=47, num_events=200)
        cut = 120
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        ) as cluster:
            cluster.consume(events[:cut])
            snapshot = cluster.snapshot()
            wire_snapshot = pickle.loads(pickle.dumps(snapshot))

            cluster.restore(snapshot)
            first = cluster.consume(events[cut:])
            first.extend(cluster.flush())

            cluster.restore(wire_snapshot)
            # every restored session shares the cluster's live objects
            count = 0
            for _, session in cluster.sessions():
                count += 1
                assert session.model is cluster.model
                assert session.spec is cluster.spec
                assert session.config is cluster.config.engine
                if session._incremental is not None:
                    assert session._incremental.model is cluster.model
            assert count > 0

            second = cluster.consume(events[cut:])
            second.extend(cluster.flush())

        def decision_bytes(emitted):
            return pickle.dumps(
                [
                    (d.stream_id, d.shard_id, d.decision.key,
                     d.decision.predicted, d.decision.confidence,
                     d.decision.observations, d.decision.decision_time,
                     d.decision.halted_by_policy)
                    for d in emitted
                ]
            )

        assert decision_bytes(first) == decision_bytes(second)

    def test_restore_rejects_shard_mismatch(self):
        model = make_model("rotary")
        cluster2 = ServingCluster(model, SPEC, ClusterConfig(num_shards=2))
        cluster4 = ServingCluster(model, SPEC, ClusterConfig(num_shards=4))
        with pytest.raises(ValueError, match="shards"):
            cluster4.restore(cluster2.snapshot())


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestAdmissionControl:
    def _event(self, position):
        return StreamEvent(
            time=float(position),
            item=Item(f"k{position % 3}", (position % 8, position % 2), float(position)),
            source=f"stream-{position % 5}",
        )

    def test_drain_policy_applies_backpressure(self, executor):
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                max_queue=3,
                batch_size=2,
                auto_drain=False,
            ),
        ) as cluster:
            for position in range(12):
                assert cluster.submit(self._event(position)).admitted
            stats = cluster.stats()
            assert stats["queue_depths"][0] <= 3
            cluster.drain()
            assert cluster.stats()["drained"] == 12

    def test_serve_shard_rejects_out_of_range_ids(self, executor):
        """A shard id outside ``[0, num_shards)`` raises one ``IndexError``
        naming the range before anything runs; ``-1`` must not serve the
        last shard."""
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(**backend(executor), num_shards=2, auto_drain=False),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            position = 0
            while cluster.shards[1].queue_depth < 20:
                event = self._event(position)
                if cluster.shard_index(event.source) == 1:
                    cluster.submit(event)
                position += 1
            for shard_id in (-1, -2, 2, 3):
                with pytest.raises(IndexError, match=r"outside \[0, 2\)"):
                    cluster.serve_shard(shard_id)
            assert cluster.stats()["queue_depths"] == [0, 20]
            assert sink.take() == []
            assert cluster.stats()["rounds"] == 0

    def test_serve_shard_on_a_closed_cluster_raises_before_anything_runs(self, executor):
        """``serve_shard`` checks the lifecycle as ``drain`` does: on a
        closed cluster it raises, leaves the queue as it was and publishes
        nothing."""
        cluster = ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(**backend(executor), num_shards=1, auto_drain=False),
        )
        sink = cluster.subscribe(BufferedSink())
        for position in range(10):
            cluster.submit(self._event(position))
        cluster.close()
        with pytest.raises(RuntimeError, match="cannot serve_shard: cluster is closed"):
            cluster.serve_shard(0)
        assert cluster.stats()["queue_depths"] == [10]
        assert cluster.stats()["rounds"] == 0
        assert sink.take() == []

    def test_auto_drain_keeps_queues_below_batch_size(self, executor):
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        ) as cluster:
            streams, events = multi_stream_events(seed=3, num_events=100)
            for event in events:
                cluster.submit(event)
                assert all(depth < 4 for depth in cluster.stats()["queue_depths"])

    def test_full_queue_serves_one_round_then_admits(self, executor):
        """The one answer to a full queue: exactly one round of that shard,
        at the batch width, then the arrival is admitted; the round's
        decisions ride on the result and reach subscribers."""
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                max_queue=4,
                batch_size=2,
                auto_drain=False,
                engine=engine_config(reencode_every=1),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            for position in range(4):
                assert cluster.submit(self._event(position)).status == "accepted"
            assert cluster.stats()["rounds"] == 0
            result = cluster.submit(self._event(4))
            stats = cluster.stats()
            assert result.admitted
            assert result.status == ("decided" if result.decisions else "accepted")
            assert stats["rounds"] == 1 and stats["drained"] == 2
            assert result.queue_depth == stats["queue_depths"][0] == 3
            assert list(result.decisions) == sink.take()

    def test_refused_admission_leaves_the_queue_as_it_was(self, executor):
        """``ShardWorker.submit`` answers a full queue with ``None`` and
        changes nothing — not the queue, not the stream's admission clock;
        one ``serve_shard`` round makes room for the retry."""
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=1, max_queue=3, batch_size=2, auto_drain=False
            ),
        ) as cluster:
            shard = cluster.shards[0]
            for position in range(3):
                cluster.submit(self._event(position))
            queued = shard.pending_entries()
            refused = self._event(8)  # stream-3 at time 8
            assert shard.submit(refused.source, refused) is None
            assert shard.pending_entries() == queued
            assert cluster.stats()["rounds"] == 0
            served = cluster.serve_shard(0)
            assert shard.queue_depth == 1 and cluster.stats()["drained"] == 2
            assert all(d.shard_id == 0 for d in served)
            # The refused arrival left no admission trace: an older arrival
            # of its stream is still in order.
            earlier = StreamEvent(
                time=5.0, item=Item("k0", (5, 1), 5.0), source=refused.source
            )
            assert shard.submit(earlier.source, earlier).status == "accepted"
            assert shard.submit(refused.source, refused).status == "accepted"
            assert shard.pending_entries() == queued[2:] + [
                (refused.source, earlier),
                (refused.source, refused),
            ]

    def test_out_of_order_arrival_on_a_full_queue_runs_no_round(self, executor):
        """Ordering is checked before capacity: an out-of-order arrival
        raises at once instead of first serving a round to make room."""
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(**backend(executor), num_shards=1, max_queue=3, auto_drain=False),
        ) as cluster:
            for position in range(3):
                cluster.submit(self._event(position))
            stale = StreamEvent(time=1.5, item=Item("k0", (1, 0), 1.5), source="stream-2")
            with pytest.raises(OutOfOrderEventError, match="stream-2"):
                cluster.submit(stale)
            stats = cluster.stats()
            assert stats["rounds"] == 0
            assert stats["queue_depths"] == [3]

    def test_failing_rounds_on_a_full_queue_degrade_instead_of_spinning(self, executor):
        """A round that fails before dequeuing frees no room (recovery
        requeues the whole queue), so the submit serves failing rounds only
        until the breaker opens, then answers ``degraded``."""
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                max_queue=3,
                batch_size=2,
                auto_drain=False,
                supervision=SupervisorConfig(
                    failure_threshold=2, backoff_base_s=30.0, backoff_max_s=30.0
                ),
                faults=FaultInjector(specs=[FaultSpec(site="shard-round", shard_id=0)]),
            ),
        ) as cluster:
            for position in range(3):
                cluster.submit(self._event(position))
            result = cluster.submit(self._event(3))
            assert result.status == "degraded" and result.decisions == ()
            health = cluster.health()
            assert health["failures"] == 2
            assert health["breaker_open"] == [0]
            assert health["degraded_submits"] == 1
            assert health["lost_arrivals"] == 0
            assert cluster.stats()["queue_depths"] == [3]

    def test_serve_shard_returns_what_it_published(self, executor):
        """One round of the named shard only, at most ``batch_size`` wide;
        its return value is exactly the batch its subscribers received."""
        streams, events = multi_stream_events(seed=12, num_events=60)
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=3,
                auto_drain=False,
                engine=engine_config(reencode_every=1),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            for event in events:
                cluster.submit(event)
            depths = cluster.stats()["queue_depths"]
            published = []
            for shard_id in (1, 0, 1):
                served = cluster.serve_shard(shard_id)
                assert served == sink.take()
                assert all(d.shard_id == shard_id for d in served)
                published.extend(served)
            # A round takes one arrival per stream: shard 0 holds two streams
            # (stream-4, stream-5), shard 1 four.
            assert cluster.stats()["queue_depths"] == [depths[0] - 2, depths[1] - 6]
            assert cluster.stats()["rounds"] == 3
            assert published, "three rounds of six streams should decide something"

    def test_serve_queued_runs_one_round_per_queued_shard(self, executor):
        """The continuous-batching step: one round on each shard with queued
        arrivals, ``False`` once nothing is queued or the cluster is closed."""
        streams, events = multi_stream_events(seed=13, num_events=40)
        cluster = ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(**backend(executor), num_shards=2, batch_size=2, auto_drain=False),
        )
        for event in events:
            cluster.submit(event)
        depths = cluster.stats()["queue_depths"]
        assert all(depths)
        assert cluster.serve_queued() is True
        assert cluster.stats()["rounds"] == 2
        assert cluster.stats()["queue_depths"] == [depth - 2 for depth in depths]
        while cluster.serve_queued():
            pass
        assert cluster.stats()["queue_depths"] == [0, 0]
        assert cluster.stats()["drained"] == len(events)
        assert cluster.serve_queued() is False
        cluster.submit(events[-1])
        cluster.close()
        assert cluster.serve_queued() is False
        assert sum(cluster.stats()["queue_depths"]) == 1

    def test_queue_bound_below_the_batch_width_holds(self, executor):
        """With ``max_queue`` under ``batch_size`` an auto-drained queue never
        reaches the width: full-queue rounds alone serve it, and no arrival
        is lost."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=14, num_events=50)
        _, expected = reference_decisions(model, streams, events)
        emitted = []
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                max_queue=2,
                batch_size=4,
                engine=engine_config(),
            ),
        ) as cluster:
            for event in events:
                result = cluster.submit(event)
                assert result.admitted and result.queue_depth <= 2
                emitted.extend(result.decisions)
            stats = cluster.stats()
            assert stats["drained"] == len(events) - stats["queue_depths"][0]
            emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)


#: Cluster-level fan-out operations.
FAN_OUT_OPERATIONS = {
    "drain": lambda cluster: cluster.drain(),
    "flush": lambda cluster: cluster.flush(),
}


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestFanOutMerge:
    """Cluster-level drain / flush run one job per shard and merge
    the per-shard lists in stable (shard index, round, intra-round) order —
    whichever shard finishes first — then publish exactly that list."""

    NUM_SHARDS = 3

    def _config(self, executor, faults=None) -> ClusterConfig:
        return ClusterConfig(
            **backend(executor),
            num_shards=self.NUM_SHARDS,
            batch_size=4,
            auto_drain=False,
            faults=faults,
            engine=engine_config(reencode_every=1),
        )

    @pytest.mark.parametrize("operation", list(FAN_OUT_OPERATIONS))
    def test_merge_is_shard_ordered_and_published_as_returned(self, executor, operation):
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=31, num_events=90)
        # Shard 0's rounds are slowed, so on the thread leg it finishes last.
        slow_first_shard = FaultInjector(
            specs=[FaultSpec(site="shard-round", action="delay", delay_s=0.01, shard_id=0)]
        )
        run = FAN_OUT_OPERATIONS[operation]
        with ServingCluster(
            model, SPEC, self._config(executor, faults=slow_first_shard)
        ) as cluster, ServingCluster(model, SPEC, self._config("serial")) as reference:
            assert {cluster.shard_index(s) for s in streams} == set(range(self.NUM_SHARDS))
            for event in events:
                cluster.submit(event)
                reference.submit(event)
            sink = cluster.subscribe(BufferedSink())
            merged = run(cluster)
            expected = run(reference)
            assert sink.take() == merged
        shard_ids = [d.shard_id for d in merged]
        assert shard_ids == sorted(shard_ids)
        assert len(set(shard_ids)) >= 2
        assert [(d.stream_id, d.shard_id, d.decision) for d in merged] == [
            (d.stream_id, d.shard_id, d.decision) for d in expected
        ]

    def test_a_failed_shard_job_leaves_the_other_shards_merged(self, executor):
        """A fan-out job that raises is absorbed by its shard's supervisor:
        the call returns the other shards' decisions in shard order, and
        the failed shard's arrivals (the job failed before any round) are
        served by the next flush, per stream as if nothing had failed."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=32, num_events=90)
        fail_once = FaultInjector(specs=[FaultSpec(site="executor-job", shard_id=1, limit=1)])
        with ServingCluster(
            model, SPEC, self._config(executor, faults=fail_once)
        ) as cluster, ServingCluster(model, SPEC, self._config("serial")) as reference:
            for event in events:
                cluster.submit(event)
                reference.submit(event)
            first = cluster.flush()
            health = cluster.health()
            failed_backlog = cluster.shards[1].queue_depth
            second = cluster.flush()
            expected = reference.flush()
        assert {d.shard_id for d in first} == {0, 2}
        shard_ids = [d.shard_id for d in first]
        assert shard_ids == sorted(shard_ids)
        assert [view["failures"] for view in health["shards"]] == [0, 1, 0]
        assert health["lost_arrivals"] == 0
        assert failed_backlog == sum(
            1 for event in events if cluster.shard_index(event.source) == 1
        )
        assert {d.shard_id for d in second} == {1}
        assert_stream_parity(by_stream(first + second, streams), by_stream(expected, streams))


#: Parity-matrix executor legs besides the serial reference.
PARALLEL_EXECUTORS = ("thread",)

#: ``(num_shards, encoding, executor)`` cells of the parallel parity matrix.
PARALLEL_CELLS = [
    (num_shards, encoding, executor)
    for executor in PARALLEL_EXECUTORS
    for encoding in ENCODINGS
    for num_shards in (1, 2, 4)
]


class TestParallelExecutorParity:
    """The thread backend must be indistinguishable, decision for decision,
    from the serial backend — and both must match one sequential engine per
    stream (the ``executor="thread"`` axis of the parity matrix, one worker
    per shard)."""

    @pytest.mark.parametrize("num_shards,encoding,executor", PARALLEL_CELLS)
    def test_parallel_backend_matches_reference_with_evictions(
        self, executor, encoding, num_shards
    ):
        model = make_model(encoding)
        streams, events = multi_stream_events(seed=42)
        _, expected = reference_decisions(model, streams, events)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=num_shards,
                batch_size=4,
                engine=engine_config(),
            ),
        ) as cluster:
            emitted = cluster.consume(events)
            emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)

    @pytest.mark.parametrize("num_shards,encoding,executor", PARALLEL_CELLS)
    def test_parallel_backend_is_list_identical_to_serial(
        self, executor, encoding, num_shards
    ):
        """Same fixed round width => the emitted StreamDecision sequence is
        bit-identical across backends, global interleaving included (the
        stable shard-index / round / intra-round merge order)."""
        model = make_model(encoding)
        streams, events = multi_stream_events(seed=19)

        def serve(executor):
            config = ClusterConfig(
                **backend(executor),
                num_shards=num_shards,
                batch_size=4,
                auto_drain=False,
                max_queue=len(events) + 1,
                engine=engine_config(),
            )
            with ServingCluster(model, SPEC, config) as cluster:
                for event in events:
                    cluster.submit(event)
                emitted = cluster.drain()
                emitted.extend(cluster.flush())
            return [
                (d.stream_id, d.shard_id, d.decision.key, d.decision.predicted,
                 d.decision.confidence, d.decision.observations,
                 d.decision.decision_time, d.decision.halted_by_policy)
                for d in emitted
            ]

        assert serve("serial") == serve(executor)

    @pytest.mark.parametrize("executor", PARALLEL_EXECUTORS)
    def test_parallel_backend_snapshot_restore_replays_identically(self, executor):
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=23, num_events=240)
        cut = 140
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        ) as cluster:
            cluster.consume(events[:cut])
            snapshot = cluster.snapshot()
            first = cluster.consume(events[cut:])
            first.extend(cluster.flush())
            cluster.restore(snapshot)
            second = cluster.consume(events[cut:])
            second.extend(cluster.flush())
        assert [(d.stream_id, d.decision.key, d.decision.confidence) for d in first] == [
            (d.stream_id, d.decision.key, d.decision.confidence) for d in second
        ]

    @pytest.mark.parametrize("executor", PARALLEL_EXECUTORS)
    def test_cluster_close_is_idempotent_and_context_managed(self, executor):
        model = make_model("rotary")
        cluster = ServingCluster(
            model, SPEC, ClusterConfig(**backend(executor), num_shards=2)
        )
        cluster.close()
        cluster.close()
        with ServingCluster(
            model, SPEC, ClusterConfig(**backend(executor), num_shards=2)
        ) as managed:
            assert managed.stats()["executor"] == "thread"

    def test_rejects_unknown_executor(self):
        for executor in ("fiber", "process"):
            with pytest.raises(ValueError, match="executor"):
                ClusterConfig(executor=executor)


class TestScheduledDrainParity:
    """Scheduled drains (``auto_drain=False``) let backlogs form, so rounds
    run up to the full ``batch_size=16`` — and every stream's decision
    sequence still matches one sequential engine per stream."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize(
        "executor,num_shards",
        [
            (executor, num_shards)
            for executor in ("serial", "thread")
            for num_shards in (1, 2, 4)
        ],
    )
    def test_scheduled_drains_match_reference(self, encoding, num_shards, executor):
        model = make_model(encoding)
        streams, events = multi_stream_events(seed=42)
        _, expected = reference_decisions(model, streams, events)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=num_shards,
                batch_size=16,
                auto_drain=False,
                max_queue=len(events) + 1,
                engine=engine_config(),
            ),
        ) as cluster:
            emitted = []
            for position, event in enumerate(events):
                emitted.extend(cluster.submit(event).decisions)
                if position % 25 == 24:  # scheduled drains let backlogs form
                    emitted.extend(cluster.drain())
            emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_scheduled_drains_with_flush_stream_match_reference(self, executor):
        """Backlogged drain scheduling with interleaved per-stream flushes,
        each of which drains its shard's backlog first, against the
        sequential reference."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=61, num_events=240)
        flush_positions = {80, 160}
        _, expected = reference_decisions(
            model, streams, events, flush_positions=flush_positions
        )
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                num_shards=2,
                batch_size=16,
                auto_drain=False,
                max_queue=len(events) + 1,
                **backend(executor),
                engine=engine_config(),
            ),
        ) as cluster:
            emitted = []
            for position, event in enumerate(events):
                emitted.extend(cluster.submit(event).decisions)
                if position in flush_positions:
                    emitted.extend(cluster.flush_stream(event.source))
                elif position % 40 == 39:
                    emitted.extend(cluster.drain())
            emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_scheduled_drain_replay_after_restore_is_identical(self, executor):
        """Two replays from one snapshot emit the same decisions in the same
        order: fixed-width rounds slice the restored queue identically."""
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=31, num_events=160)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=16,
                auto_drain=False,
                max_queue=len(events) + 1,
                engine=engine_config(),
            ),
        ) as cluster:
            cluster.consume(events[:80])
            cluster.drain()
            snapshot = cluster.snapshot()
            runs = []
            for _ in range(2):
                cluster.restore(snapshot)
                emitted = cluster.consume(events[80:])
                emitted.extend(cluster.drain())
                emitted.extend(cluster.flush())
                runs.append(
                    [
                        (d.stream_id, d.decision.key, d.decision.predicted,
                         d.decision.confidence)
                        for d in emitted
                    ]
                )
        assert runs[0]
        assert runs[0] == runs[1]


class TestRoutingAndBatching:
    def test_routing_is_stable_and_deterministic(self):
        cluster = ServingCluster(make_model("rotary"), SPEC, ClusterConfig(num_shards=4))
        for stream_id in (f"stream-{i}" for i in range(20)):
            expected = stable_key_slot(stream_id, 4)
            assert cluster.shard_index(stream_id) == expected
            assert cluster.shard_of(stream_id) is cluster.shards[expected]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sessions_live_on_their_routed_shard(self, executor):
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(**backend(executor), num_shards=4, engine=engine_config()),
        ) as cluster:
            streams, events = multi_stream_events(seed=13, num_events=80)
            cluster.consume(events)
            cluster.drain()
            for stream_id, _ in cluster.sessions():
                shard = cluster.shard_of(stream_id)
                assert stream_id in shard.sessions

    @pytest.mark.parametrize("batch_size", ["auto", "adaptive", 0, -1, 2.0, None, True])
    def test_rejects_invalid_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            ClusterConfig(batch_size=batch_size, auto_drain=False)

    @pytest.mark.parametrize("field", ["num_shards", "max_queue"])
    def test_rejects_bool_counts(self, field):
        """``bool`` is an ``int`` subclass; ``True`` must not pass as 1."""
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: True})

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_backlogged_rounds_run_at_the_fixed_width(self, executor, batch_size):
        """A round takes ``batch_size`` arrivals, or one per queued stream
        when fewer streams are queued: a round-robin backlog of ``k``
        arrivals over a shard's ``S`` streams drains in ``k`` rounds when
        ``S <= batch_size`` and in ``ceil(k * S / batch_size)`` otherwise.
        Only width-1 rounds skip the cross-stream batch."""
        streams = [f"stream-{i}" for i in range(20)]
        arrivals = 3
        events = []
        for step in range(arrivals):
            for index, stream_id in enumerate(streams):
                clock = float(step * len(streams) + index + 1)
                item = Item(f"k{index % 4}", (index % 8, step % 2), clock)
                events.append(StreamEvent(time=clock, item=item, source=stream_id))
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=batch_size,
                auto_drain=False,
                max_queue=len(events) + 1,
                engine=engine_config(halt_threshold=1.0),
            ),
        ) as cluster:
            for event in events:
                cluster.submit(event)
            cluster.drain()
            stats = cluster.stats()
            per_shard = [0, 0]
            for stream_id in streams:
                per_shard[cluster.shard_index(stream_id)] += 1
        assert min(per_shard) >= 2
        expected = sum(
            arrivals if count <= batch_size else math.ceil(arrivals * count / batch_size)
            for count in per_shard
        )
        assert stats["drained"] == len(events)
        assert stats["rounds"] == expected
        assert stats["batch_rounds"] == (0 if batch_size == 1 else expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_batching_counters_track_cross_stream_rounds(self, executor):
        streams, events = multi_stream_events(seed=17, num_events=200)
        with ServingCluster(
            make_model("rotary"),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=4,
                engine=engine_config(),
            ),
        ) as batched:
            batched.consume(events)
            batched.flush()
            stats = batched.stats()
        assert stats["batch_rounds"] > 0
        assert stats["batched_rows"] >= 2 * stats["batch_rounds"]
        assert stats["drained"] == len(events)

    def test_engine_facade_is_a_stream_session(self):
        engine = OnlineClassificationEngine(make_model("rotary"), SPEC, engine_config())
        assert isinstance(engine, StreamSession)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_hot_stream_backlog_drains_in_fifo_parity(self, executor):
        """A queue dominated by one hot stream (only one arrival of it can
        encode per round) must still drain every arrival in per-stream FIFO
        order and match the sequential reference engines."""
        model = make_model("rotary")
        rng = np.random.default_rng(37)
        events = []
        clock = 0.0
        for position in range(120):
            clock += 1.0
            # ~80% of traffic on the hot stream, the rest on three cold ones.
            stream_id = "hot" if rng.random() < 0.8 else f"cold-{rng.integers(3)}"
            item = Item(
                f"k{rng.integers(3)}", (int(rng.integers(8)), int(rng.integers(2))), clock
            )
            events.append(StreamEvent(time=clock, item=item, source=stream_id))
        streams = sorted({event.source for event in events})
        _, expected = reference_decisions(model, streams, events)

        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=4,
                max_queue=500,
                auto_drain=False,
                engine=engine_config(),
            ),
        ) as cluster:
            for event in events:
                cluster.submit(event)
            emitted = cluster.drain()
            emitted.extend(cluster.flush())
            assert cluster.stats()["drained"] == len(events)
        assert_stream_parity(by_stream(emitted, streams), expected)


#: ``(num_shards, executor)`` cells of the sink leg of the parity matrix.
SINK_CELLS = [
    (num_shards, executor)
    for executor in ("serial", "thread")
    for num_shards in (1, 2, 4)
]


class TestSinkDeliveryParity:
    """Push delivery is decision-for-decision and order-identical to the
    returned-list API: across executors, shard counts and round schedules a
    subscribed sink receives exactly the concatenation of every returned
    list, same objects, same order (the sink leg of the parity matrix)."""

    @pytest.mark.parametrize(
        "batch_size,auto_drain,drain_every,seed",
        [(4, True, None, 42), (16, False, 25, 19)],
        ids=["auto-drain", "scheduled-drains"],
    )
    @pytest.mark.parametrize("num_shards,executor", SINK_CELLS)
    def test_sink_matches_returned_lists(
        self, executor, num_shards, batch_size, auto_drain, drain_every, seed
    ):
        model = make_model("rotary")
        streams, events = multi_stream_events(seed=seed)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=num_shards,
                batch_size=batch_size,
                auto_drain=auto_drain,
                max_queue=len(events) + 1,
                engine=engine_config(),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            returned = []
            for position, event in enumerate(events):
                returned.extend(cluster.submit(event).decisions)
                if drain_every and position % drain_every == drain_every - 1:
                    returned.extend(cluster.drain())
            returned.extend(cluster.drain())
            returned.extend(cluster.flush())
            delivered = sink.take()
        assert delivered == returned

    @pytest.mark.parametrize("executor", ["thread"])
    def test_sink_delivery_is_backend_deterministic(self, executor):
        """The delivered sequence (not just the returned one) is identical
        across serial and thread executors for fixed-width rounds."""
        model = make_model("absolute")
        streams, events = multi_stream_events(seed=23)

        def serve(executor):
            with ServingCluster(
                model,
                SPEC,
                ClusterConfig(
                    num_shards=2,
                    batch_size=4,
                    auto_drain=False,
                    max_queue=len(events) + 1,
                    **backend(executor),
                    engine=engine_config(),
                ),
            ) as cluster:
                sink = cluster.subscribe(BufferedSink())
                for event in events:
                    cluster.submit(event)
                cluster.drain()
                cluster.flush()
                return [
                    (d.stream_id, d.shard_id, d.decision.key, d.decision.predicted)
                    for d in sink.take()
                ]

        assert serve("serial") == serve(executor)

    @pytest.mark.stress
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("seed", range(8))
    def test_sink_vs_returned_list_fuzz(self, seed, executor):
        """Weekly randomized sweep: any mix of submits, drains and flushes
        over a random cluster shape must deliver, through the sink, exactly
        the concatenated returned lists."""
        rng = np.random.default_rng(4000 + seed)
        model = make_model(
            str(rng.choice(ENCODINGS)), seed=int(rng.integers(100))
        )
        streams, events = multi_stream_events(
            seed=5000 + seed,
            num_events=int(rng.integers(120, 320)),
            num_streams=int(rng.integers(2, 8)),
            num_keys=int(rng.integers(2, 6)),
        )
        overrides = dict(
            window_items=int(rng.integers(4, 12)),
            reencode_every=int(rng.integers(1, 4)),
        )
        config = ClusterConfig(
            **backend(executor),
            num_shards=int(rng.choice([1, 2, 4])),
            batch_size=int(rng.integers(1, 9)),
            auto_drain=bool(rng.random() < 0.7),
            max_queue=len(events) + 1,
            engine=engine_config(**overrides),
        )
        drain_every = int(rng.integers(10, 60))
        with ServingCluster(model, SPEC, config) as cluster:
            sink = cluster.subscribe(BufferedSink())
            returned = []
            for position, event in enumerate(events):
                returned.extend(cluster.submit(event).decisions)
                if position % drain_every == drain_every - 1:
                    if rng.random() < 0.3:
                        returned.extend(cluster.flush())
                    else:
                        returned.extend(cluster.drain())
            returned.extend(cluster.flush())
            delivered = sink.take()
        assert delivered == returned


class TestClusterLockstepStress:
    """Long randomized cluster-vs-reference sweeps (weekly CI stress job).

    Each case draws a fresh seeded multi-stream event sequence and a random
    serving schedule (interleaved explicit drains), serves it
    through a randomly-shaped cluster (shards, executor, round width, both
    encodings), and demands per-stream decision-for-decision
    parity with one sequential engine per stream.
    """

    @pytest.mark.stress
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("seed", range(12))
    def test_cluster_parity_fuzz(self, seed, encoding):
        rng = np.random.default_rng(1000 + seed)
        model = make_model(encoding, seed=int(rng.integers(100)))
        streams, events = multi_stream_events(
            seed=2000 + seed,
            num_events=int(rng.integers(150, 400)),
            num_streams=int(rng.integers(2, 8)),
            num_keys=int(rng.integers(2, 6)),
        )
        overrides = dict(
            window_items=int(rng.integers(4, 12)),
            reencode_every=int(rng.integers(1, 4)),
        )
        _, expected = reference_decisions(model, streams, events, **overrides)

        config = ClusterConfig(
            executor=str(rng.choice(["serial", "thread"])),
            num_shards=int(rng.choice([1, 2, 4])),
            batch_size=int(rng.integers(1, 9)),
            auto_drain=bool(rng.random() < 0.7),
            max_queue=len(events) + 1,
            engine=engine_config(**overrides),
        )
        drain_every = int(rng.integers(10, 60))
        with ServingCluster(model, SPEC, config) as cluster:
            emitted = []
            for position, event in enumerate(events):
                emitted.extend(cluster.submit(event).decisions)
                if position % drain_every == drain_every - 1:
                    emitted.extend(cluster.drain())
            emitted.extend(cluster.flush())
        assert_stream_parity(by_stream(emitted, streams), expected)

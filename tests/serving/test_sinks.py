"""Push-delivery layer: SubmitResult, ConsumeSummary, sinks and lifecycle.

Unit coverage of the result/sink value types plus their integration with the
cluster: explicit admission outcomes, subscription delivery identical to the
returned lists (one shard's share selected by ``StreamDecision.shard_id``),
the execution context deliveries run on, throughput/stats surfacing and the
running → draining → closed lifecycle guards.  (The full delivery-order
parity matrix lives with the cluster parity suite in ``test_cluster.py``.)
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving import (
    SUBMIT_STATUSES,
    AsyncQueueSink,
    BufferedSink,
    ClusterConfig,
    ConsumeSummary,
    DecisionSink,
    EngineConfig,
    FanOutSink,
    FaultInjectingSink,
    FaultInjector,
    FaultSpec,
    ServingCluster,
    SubmitResult,
    SupervisorConfig,
)
from repro.serving.cluster import StreamDecision
from repro.serving.engine import Decision
from tests.serving.backends import backend

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)


def make_model(seed: int = 3) -> KVEC:
    config = KVECConfig(
        d_model=12,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=20,
        d_state=16,
        dropout=0.0,
        encoding="rotary",
        seed=seed,
    )
    return KVEC(SPEC, num_classes=3, config=config)


def make_events(seed: int, count: int = 120, num_streams: int = 5, num_keys: int = 4):
    rng = np.random.default_rng(seed)
    events = []
    clock = 0.0
    for _ in range(count):
        clock += 1.0
        item = Item(
            f"k{rng.integers(num_keys)}",
            (int(rng.integers(8)), int(rng.integers(2))),
            clock,
        )
        events.append(
            StreamEvent(time=clock, item=item, source=f"stream-{rng.integers(num_streams)}")
        )
    return events


def fake_decision(stream_id="s", key="k", position=0) -> StreamDecision:
    return StreamDecision(
        stream_id=stream_id,
        shard_id=0,
        decision=Decision(
            key=key,
            predicted=position % 3,
            confidence=0.9,
            observations=position + 1,
            decision_time=float(position),
            halted_by_policy=True,
            window_truncated=False,
        ),
    )


class TestSubmitResult:
    def test_statuses_and_predicates(self):
        accepted = SubmitResult(status="accepted", stream_id="s", shard_id=0)
        assert accepted.admitted
        degraded = SubmitResult(status="degraded", stream_id="s", shard_id=0)
        assert not degraded.admitted
        with pytest.raises(ValueError, match="status"):
            SubmitResult(status="maybe", stream_id="s", shard_id=0)

    @pytest.mark.parametrize("status", ["rejected", "shed"])
    def test_full_queue_statuses_do_not_exist(self, status):
        """A full queue is not an outcome (the submit serves a round, then
        admits), so the statuses of the old overflow policies are unknown."""
        assert status not in SUBMIT_STATUSES
        with pytest.raises(ValueError, match=status):
            SubmitResult(status=status, stream_id="s", shard_id=0)


class TestConsumeSummary:
    def test_is_a_decision_list_with_counts(self):
        summary = ConsumeSummary()
        summary.record(
            SubmitResult(
                status="decided",
                stream_id="s",
                shard_id=0,
                decisions=(fake_decision(),),
            )
        )
        summary.record(SubmitResult(status="accepted", stream_id="s", shard_id=0))
        summary.record(SubmitResult(status="degraded", stream_id="s", shard_id=0))
        assert isinstance(summary, list) and len(summary) == 1
        assert summary.decided == 1 and summary.accepted == 1 and summary.degraded == 1
        assert summary.submitted == 3 and summary.admitted == 2
        # list concatenation (the legacy idiom) still works
        assert len(summary + [fake_decision()]) == 2

    def test_counts_cover_every_status_and_nothing_else(self):
        summary = ConsumeSummary()
        assert summary.counts == {status: 0 for status in SUBMIT_STATUSES}
        for status in SUBMIT_STATUSES:
            summary.record(SubmitResult(status=status, stream_id="s", shard_id=0))
        assert summary.submitted == len(SUBMIT_STATUSES)
        assert summary.admitted + summary.degraded == summary.submitted


class TestSinkPrimitives:
    def test_buffered_sink_take_and_peek(self):
        sink = BufferedSink()
        batch = [fake_decision(position=i) for i in range(4)]
        sink.publish_all(batch)
        assert len(sink) == 4
        assert sink.peek() == batch and len(sink) == 4
        assert sink.take() == batch
        assert len(sink) == 0 and sink.take() == []

    def test_bounded_buffer_sheds_oldest_and_counts(self):
        sink = BufferedSink(maxlen=3)
        batch = [fake_decision(key=f"k{i}", position=i) for i in range(5)]
        sink.publish_all(batch)
        assert sink.dropped == 2
        assert [d.decision.key for d in sink.take()] == ["k2", "k3", "k4"]
        with pytest.raises(ValueError):
            BufferedSink(maxlen=0)

    def test_fan_out_sink_order_and_membership(self):
        first, second = BufferedSink(), BufferedSink()
        fan = FanOutSink([first])
        fan.add(second)
        assert len(fan) == 2
        decision = fake_decision()
        fan.publish(decision)
        assert first.take() == [decision] and second.take() == [decision]
        assert fan.remove(second) and not fan.remove(second)
        fan.publish(decision)
        assert first.take() == [decision] and second.take() == []
        with pytest.raises(TypeError):
            fan.add(object())

    def test_async_queue_sink_unbounded_delivery(self):
        async def scenario():
            queue = asyncio.Queue()
            sink = AsyncQueueSink(queue, asyncio.get_running_loop())
            batch = [fake_decision(position=i) for i in range(3)]
            sink.publish_all(batch)  # loop thread + unbounded: put_nowait
            received = [await queue.get() for _ in range(3)]
            assert received == batch
            sink.close()
            sink.publish(fake_decision())  # closed sinks drop silently
            assert queue.empty()

        asyncio.run(scenario())

    def test_bounded_async_queue_sink_rejects_loop_thread_publish(self):
        async def scenario():
            queue = asyncio.Queue(maxsize=1)
            sink = AsyncQueueSink(queue, asyncio.get_running_loop())
            with pytest.raises(RuntimeError, match="event-loop thread"):
                sink.publish(fake_decision())

        asyncio.run(scenario())


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestClusterDelivery:
    def test_subscribed_sink_sees_exactly_the_returned_decisions(self, executor):
        model = make_model()
        events = make_events(seed=11)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=7, halt_threshold=0.5, reencode_every=2),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            returned = []
            for event in events:
                returned.extend(cluster.submit(event).decisions)
            returned.extend(cluster.drain())
            returned.extend(cluster.flush())
            delivered = sink.take()
        assert delivered == returned
        assert [d.decision.key for d in delivered] == [d.decision.key for d in returned]

    def test_sink_may_submit_back_into_its_cluster(self, executor):
        """A sink publishes from the shard's execution context; one that
        submits there an arrival which fills its shard's queue gets that
        round run inline, as a re-entrant ``run`` would, instead of a
        deadlock on the thread backend's pinned worker."""
        model = make_model()
        config = ClusterConfig(
            **backend(executor),
            num_shards=1,
            batch_size=1,
            # Every first item decides its key at this threshold.
            engine=EngineConfig(window_items=7, halt_threshold=0.2, reencode_every=1),
        )
        cluster = ServingCluster(model, SPEC, config)
        echo = StreamEvent(time=2.0, item=Item("k1", (1, 0), 2.0), source="echo")
        echoed = []

        class EchoSink(DecisionSink):
            armed = True

            def publish(self, decision):
                if self.armed:
                    self.armed = False  # the echo's own decision lands here too
                    echoed.append(cluster.submit(echo))

        seen = cluster.subscribe(BufferedSink())
        cluster.subscribe(EchoSink())
        served = threading.Event()

        def submit_first():
            cluster.submit(StreamEvent(time=1.0, item=Item("k0", (0, 0), 1.0), source="first"))
            served.set()

        threading.Thread(target=submit_first, daemon=True).start()
        assert served.wait(timeout=10), "a re-entrant submit deadlocked"
        assert echoed[0].status == "decided"
        assert [sd.stream_id for sd in seen.take()] == ["first", "echo"]
        cluster.close()

    def test_unsubscribe_stops_delivery(self, executor):
        model = make_model()
        events = make_events(seed=13, count=60)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=4,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            cluster.consume(events[:30])
            assert cluster.unsubscribe(sink)
            seen_before = len(sink.peek())
            cluster.consume(events[30:])
            cluster.flush()
            assert len(sink.peek()) == seen_before
            assert not cluster.unsubscribe(sink)

    def test_decided_status_carries_emitted_decisions(self, executor):
        model = make_model()
        events = make_events(seed=19)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=2,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            results = [cluster.submit(event) for event in events]
        decided = [r for r in results if r.status == "decided"]
        assert decided, "the stream should have triggered at least one decision"
        assert all(r.decisions for r in decided)
        assert all(
            r.status == "accepted" and not r.decisions
            for r in results
            if r.status != "decided"
        )

    def test_consume_summary_counts_match_admission(self, executor):
        model = make_model()
        events = make_events(seed=23, count=40)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                max_queue=8,
                auto_drain=False,
            ),
        ) as cluster:
            # A full queue serves a round, then admits: every arrival counts
            # as admitted, and the summary carries what those rounds emitted.
            summary = cluster.consume(events)
            assert summary.submitted == summary.admitted == len(events)
            assert summary.degraded == 0
            assert summary.accepted + summary.decided == len(events)
            assert cluster.stats()["queue_depths"][0] <= 8
            cluster.drain()
            assert cluster.stats()["drained"] == len(events)

    def test_submit_statuses_cover_every_outcome(self, executor):
        """``accepted`` while arrivals only queue, ``decided`` when a round
        they fill emits, ``degraded`` once the shard's breaker is open."""
        events = make_events(seed=21, count=80)
        injector = FaultInjector()
        with ServingCluster(
            make_model(),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=2,
                supervision=SupervisorConfig(
                    failure_threshold=1, backoff_base_s=30.0, backoff_max_s=30.0
                ),
                faults=injector,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            serving = [cluster.submit(event).status for event in events[:60]]
            assert set(serving) == {"accepted", "decided"}
            # From here every round fails; the first opens the breaker.
            injector.add(FaultSpec(site="shard-round"))
            failing = [cluster.submit(event) for event in events[60:]]
            statuses = [result.status for result in failing]
            first_degraded = statuses.index("degraded")
            assert set(statuses[:first_degraded]) == {"accepted"}
            assert set(statuses[first_degraded:]) == {"degraded"}
            assert all(result.decisions == () for result in failing)
            health = cluster.health()
            assert health["failures"] == 1 and health["breaker_open"] == [0]
            assert health["degraded_submits"] == len(statuses) - first_degraded
            assert failing[-1].queue_depth == cluster.shards[0].queue_depth

    def test_filtering_on_shard_id_selects_one_shards_deliveries(self, executor):
        """Every subscriber subscribes to the cluster; a consumer that wants
        one shard keeps the decisions whose ``shard_id`` names it, and gets
        exactly that shard's share of the returned decisions, in order."""
        events = make_events(seed=17)
        with ServingCluster(
            make_model(),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            sink = cluster.subscribe(BufferedSink())
            returned = list(cluster.consume(events))
            returned.extend(cluster.flush())
            delivered = sink.take()
        assert delivered == returned
        for shard_id in (0, 1):
            mine = [d for d in delivered if d.shard_id == shard_id]
            assert mine, f"shard {shard_id} decided nothing"
            assert all(cluster.shard_index(d.stream_id) == shard_id for d in mine)
            assert mine == [d for d in returned if d.shard_id == shard_id]

    def test_submission_rounds_publish_on_the_shards_context(self, executor):
        """Rounds a submit triggers publish from the shard's execution
        context: the caller's thread on the serial leg, the shard's pinned
        worker on the thread leg — which is what keeps one stream's
        deliveries in order under concurrent submitters."""

        class PublishingThreads(DecisionSink):
            def __init__(self):
                self.by_shard = {}

            def publish(self, decision):
                self.by_shard.setdefault(decision.shard_id, set()).add(
                    threading.get_ident()
                )

        events = make_events(seed=25)
        with ServingCluster(
            make_model(),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=2,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            sink = cluster.subscribe(PublishingThreads())
            for event in events:
                cluster.submit(event)
            contexts = [
                cluster._executor.run(shard_id, threading.get_ident) for shard_id in (0, 1)
            ]
        assert set(sink.by_shard) == {0, 1}
        for shard_id, threads in sink.by_shard.items():
            assert threads == {contexts[shard_id]}
        if executor == "serial":
            assert contexts == [threading.get_ident()] * 2
        else:
            assert threading.get_ident() not in contexts


class TestClusterLifecycle:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_states_and_guards(self, executor):
        model = make_model()
        events = make_events(seed=31, count=30)
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=7),
            ),
        )
        assert cluster.state == "running"
        cluster.consume(events)
        cluster.close()
        assert cluster.state == "closed"
        with pytest.raises(RuntimeError, match="closed"):
            cluster.submit(events[0])
        with pytest.raises(RuntimeError, match="closed"):
            cluster.drain()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.flush()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.restore(None)  # guard fires before snapshot validation
        assert cluster.stats()["state"] == "closed"

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_shutdown_flushes_then_closes(self, executor):
        model = make_model()
        events = make_events(seed=37, count=60)
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=7),
            ),
        )
        sink = cluster.subscribe(BufferedSink())
        returned = list(cluster.consume(events))
        emitted = cluster.shutdown()
        returned.extend(emitted)
        assert cluster.state == "closed"
        assert sink.take() == returned
        assert cluster.shutdown() == []  # idempotent
        # every queued arrival was served before the close
        assert cluster.stats()["queue_depths"] == [0, 0]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_stats_surfaces_throughput_and_per_shard_counters(self, executor):
        model = make_model()
        events = make_events(seed=41, count=50)
        with ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            cluster.consume(events)
            cluster.flush()
            stats = cluster.stats()
        assert stats["items_per_s"] > 0.0
        assert stats["decisions_per_s"] > 0.0
        assert len(stats["shard_monitors"]) == 2
        assert sum(view["rounds"] for view in stats["shard_monitors"]) == stats["rounds"]
        assert sum(view["rows"] for view in stats["shard_monitors"]) == stats["drained"]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_health_counts_each_subscriber_once(self, executor):
        """Delivery health reads the cluster's one fan-out: two failing
        subscribers are two quarantines of ``sink_quarantine_after`` errors
        each, however many shards published to them, and the healthy
        subscriber still sees every decision."""
        injector = FaultInjector(specs=[FaultSpec(site="sink-publish")])
        with ServingCluster(
            make_model(),
            SPEC,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=2,
                engine=EngineConfig(window_items=7),
            ),
        ) as cluster:
            healthy = cluster.subscribe(BufferedSink())
            for _ in range(2):
                cluster.subscribe(FaultInjectingSink(injector))
            returned = list(cluster.consume(make_events(seed=27)))
            returned.extend(cluster.flush())
            health = cluster.health()
            quarantine_after = cluster.config.supervision.sink_quarantine_after
        assert {d.shard_id for d in returned} == {0, 1}
        assert health["quarantined_sinks"] == 2
        assert health["sink_publish_errors"] == 2 * quarantine_after
        assert healthy.take() == returned


class TestCustomSinkContract:
    def test_base_sink_requires_publish(self):
        class Incomplete(DecisionSink):
            pass

        with pytest.raises(NotImplementedError):
            Incomplete().publish(fake_decision())

    def test_custom_sink_receives_batches_in_order(self):
        class Recording(DecisionSink):
            def __init__(self):
                self.batches = []

            def publish(self, decision):
                self.batches.append([decision])

            def publish_all(self, decisions):
                self.batches.append(list(decisions))

        model = make_model()
        events = make_events(seed=43, count=40)
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(num_shards=1, batch_size=4, engine=EngineConfig(window_items=7)),
        )
        recording = cluster.subscribe(Recording())
        returned = list(cluster.consume(events))
        returned.extend(cluster.flush())
        flattened = [d for batch in recording.batches for d in batch]
        assert flattened == returned


class FailingSink(DecisionSink):
    """Raises on every publish until ``heal()`` is called."""

    def __init__(self):
        self.failing = True
        self.received = []
        self.closed = False

    def heal(self):
        self.failing = False

    def publish(self, decision):
        if self.failing:
            raise RuntimeError("sink is broken")
        self.received.append(decision)

    def close(self):
        self.closed = True


class TestFanOutFaultIsolation:
    def test_failing_child_never_poisons_siblings(self):
        broken, healthy = FailingSink(), BufferedSink()
        hub = FanOutSink([broken, healthy], quarantine_after=None)
        batch = [fake_decision(key=f"k{i}") for i in range(3)]
        hub.publish_all(batch)  # must not raise
        assert healthy.take() == batch
        assert hub.publish_errors == 1
        assert hub.quarantined == []
        assert len(hub) == 2  # quarantine disabled: the child stays subscribed

    def test_quarantine_after_consecutive_failures(self):
        broken, healthy = FailingSink(), BufferedSink()
        hub = FanOutSink([broken, healthy], quarantine_after=3)
        for i in range(5):
            hub.publish(fake_decision(position=i))
        # Three consecutive failures quarantined the child; later publishes
        # no longer reach it (or count against it).
        assert hub.quarantined == [broken]
        assert hub.publish_errors == 3
        assert len(hub) == 1
        assert len(healthy.peek()) == 5

    def test_success_resets_the_consecutive_count(self):
        flaky = FailingSink()
        hub = FanOutSink([flaky], quarantine_after=3)
        hub.publish(fake_decision(position=0))
        hub.publish(fake_decision(position=1))
        flaky.heal()
        hub.publish(fake_decision(position=2))  # success: streak resets
        flaky.failing = True
        hub.publish(fake_decision(position=3))
        hub.publish(fake_decision(position=4))
        assert hub.quarantined == []  # never hit 3 *consecutive* failures
        assert hub.publish_errors == 4
        assert len(hub) == 1

    def test_quarantined_children_are_still_closed(self):
        broken = FailingSink()
        hub = FanOutSink([broken], quarantine_after=1)
        hub.publish(fake_decision())
        assert hub.quarantined == [broken]
        hub.close()
        assert broken.closed

    def test_quarantine_after_validation(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            FanOutSink(quarantine_after=0)

    def test_delivery_health_is_lock_consistent_under_publishers(self):
        """Health reads and close() snapshot under the sink lock while
        worker threads quarantine children concurrently."""
        import threading

        hub = FanOutSink(quarantine_after=1)
        sinks = [FailingSink() for _ in range(32)]
        for sink in sinks:
            hub.add(sink)
        stop = threading.Event()
        views = []

        def reader():
            while not stop.is_set():
                views.append(hub.delivery_health())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            hub.publish(fake_decision())  # quarantines all 32 children
        finally:
            stop.set()
            thread.join()
        health = hub.delivery_health()
        assert health == {"quarantined": 32, "publish_errors": 32}
        # Counts observed mid-publish only ever grow, in step.
        last = -1
        for view in views:
            assert view["quarantined"] <= view["publish_errors"]
            assert view["quarantined"] >= last
            last = view["quarantined"]
        hub.close()
        assert all(sink.closed for sink in sinks)

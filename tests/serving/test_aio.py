"""AsyncServingGateway: admission on the loop, continuous batching, decision
streams, lifecycle.

Runs entirely on stdlib ``asyncio.run`` (no pytest-asyncio: the asyncio
suite is part of the tier-1 job with zero new dependencies).  The core
contract: per-stream decisions served through the async gateway —
including under *concurrent* submitter tasks — are decision-for-decision
identical to one sequential single-stream engine per stream, and the pushed
``decisions()`` stream carries exactly the published decisions.
Submissions return admission outcomes only; decisions are read from the
push stream, the ``result()`` futures and subscribed sinks.
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
    AsyncServingGateway,
    BufferedSink,
    ClusterConfig,
    DecisionSink,
    EngineConfig,
    OnlineClassificationEngine,
    ServingCluster,
)
from repro.serving.cluster import ShardWorker
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


def engine_config(**overrides) -> EngineConfig:
    kwargs = dict(window_items=7, halt_threshold=0.5, reencode_every=2)
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def multi_stream_events(seed: int, num_events=200, num_streams=4, num_keys=4):
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


def reference_decisions(model, streams, events):
    engines = {
        stream_id: OnlineClassificationEngine(model, SPEC, engine_config())
        for stream_id in streams
    }
    ordered = {stream_id: [] for stream_id in streams}
    for event in events:
        ordered[event.source].extend(engines[event.source].offer(event))
    for stream_id, engine in engines.items():
        ordered[stream_id].extend(engine.flush())
    return ordered


def assert_per_stream_parity(got_by_stream, expected):
    for stream_id, reference in expected.items():
        got = got_by_stream.get(stream_id, [])
        assert [d.key for d in got] == [d.key for d in reference], stream_id
        for mine, ref in zip(got, reference):
            assert mine.predicted == ref.predicted, (stream_id, mine.key)
            assert mine.confidence == pytest.approx(ref.confidence, abs=1e-9)
            assert mine.observations == ref.observations, (stream_id, mine.key)


def by_stream(stream_decisions):
    grouped = {}
    for stream_decision in stream_decisions:
        grouped.setdefault(stream_decision.stream_id, []).append(stream_decision.decision)
    return grouped


async def settle(gateway, timeout=10.0):
    """Wait until the round task has served every queued arrival.

    A snapshot is exclusive of round steps, so once the queues are empty it
    returns only after the last step, and its publications, finished.
    """
    deadline = asyncio.get_running_loop().time() + timeout
    while any(shard.queue_depth for shard in gateway.cluster.shards):
        assert asyncio.get_running_loop().time() < deadline, "arrivals never served"
        await asyncio.sleep(0.001)
    await gateway.snapshot()


def first_items(count, halt_threshold=1.0):
    """One arrival per stream, all at time 1.0, on streams s0, s1, ..."""
    return [
        StreamEvent(time=1.0, item=Item("k0", (index % 8, 0), 1.0), source=f"s{index}")
        for index in range(count)
    ]


class TestAsyncParity:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_concurrent_submitters_match_reference_per_stream(self, executor):
        """One submitter task per stream, all running concurrently: every
        stream's decision sequence equals the sequential single-stream
        reference (the AsyncServingGateway leg of the parity matrix)."""
        model = make_model()
        streams, events = multi_stream_events(seed=42, num_events=240)
        expected = reference_decisions(model, streams, events)
        per_stream_events = {
            stream_id: [e for e in events if e.source == stream_id]
            for stream_id in streams
        }

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=engine_config(),
            )
            pushed = []
            async with AsyncServingGateway(model, SPEC, config) as gateway:

                async def consume():
                    async for decision in gateway.decisions():
                        pushed.append(decision)

                consumer = asyncio.create_task(consume())

                async def submit_stream(stream_id):
                    for event in per_stream_events[stream_id]:
                        result = await gateway.submit(event)
                        assert result.admitted
                    # per-stream flush is not exposed async; the final
                    # close() flushes everything

                await asyncio.gather(*(submit_stream(s) for s in streams))
                await gateway.close()
                await consumer
                registry_order = {s: gateway.stream_decisions(s) for s in streams}
            return pushed, registry_order

        pushed, registry_order = asyncio.run(scenario())
        got_by_stream = {}
        for stream_decision in pushed:
            got_by_stream.setdefault(stream_decision.stream_id, []).append(
                stream_decision.decision
            )
        assert_per_stream_parity(got_by_stream, expected)
        # the per-key registry keeps the same per-stream order
        assert_per_stream_parity(registry_order, expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_decision_stream_equals_published_decisions_for_sequential_caller(
        self, executor
    ):
        """A sequential caller that yields between submissions: rounds serve
        the arrivals as they come, the submissions carry no decisions, and
        the decision stream is list-identical to what the cluster published
        (same objects, same order), which matches the sequential reference
        per stream."""
        model = make_model()
        streams, events = multi_stream_events(seed=7, num_events=120)
        expected = reference_decisions(model, streams, events)

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            sink = gateway.cluster.subscribe(BufferedSink())
            for event in events:
                result = await gateway.submit(event)
                assert result.status == "accepted" and result.decisions == ()
                await asyncio.sleep(0)
            await settle(gateway)
            served_before_flush = len(sink)
            await gateway.drain()
            await gateway.close()
            pushed = [d async for d in gateway.decisions()]
            return served_before_flush, sink.take(), pushed

        served_before_flush, published, pushed = asyncio.run(scenario())
        assert served_before_flush > 0  # served without any drain
        assert pushed == published
        assert_per_stream_parity(by_stream(pushed), expected)


class TestAsyncFuturesAndBackpressure:
    def test_result_future_resolves_on_emission(self):
        model = make_model()
        streams, events = multi_stream_events(seed=13, num_events=100)

        async def scenario():
            config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                target_stream = events[0].source
                target_key = events[0].key
                future = gateway.result(target_stream, target_key)
                assert not future.done()
                for event in events:
                    await gateway.submit(event)
                await gateway.flush()
                decision = await asyncio.wait_for(future, timeout=5)
                assert decision.key == target_key
                assert gateway.decided(target_stream, target_key) is decision
                # already-decided keys resolve immediately
                assert (await gateway.result(target_stream, target_key)) is decision
                never = gateway.result("no-such-stream", "no-such-key")
                return never

        never = asyncio.run(scenario())
        assert never.cancelled()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_slow_consumer_reads_every_decision_in_order(self, executor):
        """A consumer that yields after every decision still reads every
        published decision, in publication order."""
        model = make_model()
        streams, events = multi_stream_events(seed=17, num_events=150)

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            pushed = []

            async def consume():
                async for decision in gateway.decisions():
                    pushed.append(decision)
                    await asyncio.sleep(0)  # deliberately slow consumer

            consumer = asyncio.create_task(consume())
            sink = gateway.cluster.subscribe(BufferedSink())
            for event in events:
                await gateway.submit(event)
                await asyncio.sleep(0)
            await gateway.close()
            await consumer
            return sink.take(), pushed

        published, pushed = asyncio.run(scenario())
        assert len(published) > 4
        assert pushed == published  # nothing lost, order preserved

    def test_abandoned_decision_iterator_unsubscribes_its_sink(self):
        """A decisions() consumer that vanishes mid-stream is detached in
        the generator's teardown, and decisions keep flowing after it."""
        model = make_model()
        streams, events = multi_stream_events(seed=19, num_events=120)

        async def scenario():
            config = ClusterConfig(num_shards=2, batch_size=4, engine=engine_config())
            gateway = AsyncServingGateway(model, SPEC, config)
            iterator = gateway.decisions()
            for event in events[:40]:
                await gateway.submit(event)
            first = await asyncio.wait_for(iterator.__anext__(), timeout=5)
            assert gateway.stats()["decision_streams"] == 1
            # the consumer vanishes mid-stream with its queue still full
            await iterator.aclose()
            assert gateway.stats()["decision_streams"] == 0
            sink = gateway.cluster.subscribe(BufferedSink())
            for event in events[40:]:
                await asyncio.wait_for(gateway.submit(event), timeout=10)
                await asyncio.sleep(0)
            await asyncio.wait_for(settle(gateway), timeout=10)
            served = len(sink)
            await asyncio.wait_for(gateway.close(), timeout=10)
            return first, served

        first, served = asyncio.run(scenario())
        assert first is not None
        assert served > 2  # decisions kept flowing after abandonment

    def test_cancelled_consumer_task_unsubscribes_its_sink(self):
        """Task cancellation is the other disconnect path (HTTP teardown)."""
        model = make_model()
        streams, events = multi_stream_events(seed=37, num_events=80)

        async def scenario():
            config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
            gateway = AsyncServingGateway(model, SPEC, config)

            async def consume():
                async for _ in gateway.decisions():
                    pass  # drain until the connection handler is cancelled

            consumer = asyncio.create_task(consume())
            for event in events[:30]:
                await gateway.submit(event)
            await asyncio.sleep(0)
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass
            assert gateway.stats()["decision_streams"] == 0
            sink = gateway.cluster.subscribe(BufferedSink())
            for event in events[30:]:
                await asyncio.wait_for(gateway.submit(event), timeout=10)
                await asyncio.sleep(0)
            await asyncio.wait_for(settle(gateway), timeout=10)
            served = len(sink)
            await asyncio.wait_for(gateway.close(), timeout=10)
            return served

        served = asyncio.run(scenario())
        assert served > 2  # decisions kept flowing after the cancellation


class TestContinuousBatching:
    """With ``auto_drain`` the gateway serves each arrival in its shard's
    next round, whatever the queue depth, and never on the event loop."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_fewer_than_batch_size_arrivals_are_served_without_drain(self, executor):
        """Three arrivals under a round width of four: no drain() or flush()
        runs, yet their futures resolve and their decisions are pushed."""
        model = make_model()
        events = first_items(3)
        # Every first item is evaluated and decides its key at this threshold.
        engine = engine_config(reencode_every=1, halt_threshold=0.2)

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=1, batch_size=4, engine=engine
            )
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                futures = [gateway.result(event.source, event.key) for event in events]
                iterator = gateway.decisions()
                for event in events:
                    assert (await gateway.submit(event)).status == "accepted"
                decided = await asyncio.wait_for(asyncio.gather(*futures), timeout=10)
                pushed = [
                    await asyncio.wait_for(iterator.__anext__(), timeout=10)
                    for _ in events
                ]
                await iterator.aclose()
                drained = gateway.stats()["drained"]
            return decided, pushed, drained

        decided, pushed, drained = asyncio.run(scenario())
        assert drained == 3
        by_source = {sd.stream_id: sd.decision for sd in pushed}
        for event, decision in zip(events, decided):
            assert by_source[event.source] is decision

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_arrivals_admitted_before_the_loop_yields_share_rounds(self, executor):
        """Eight distinct-stream arrivals admitted back to back, with no
        yield in between, are served by two rounds of four rows, not by
        eight one-row rounds."""
        model = make_model()

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=4,
                engine=engine_config(halt_threshold=1.0),
            )
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                for event in first_items(8):
                    await gateway.submit(event)
                await settle(gateway)
                return gateway.stats()

        stats = asyncio.run(scenario())
        assert stats["drained"] == 8
        assert stats["rounds"] == 2
        assert stats["batched_rows"] == 8

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_no_round_runs_on_the_loop_thread(self, executor, monkeypatch):
        """Spies record the thread that runs each round body and the thread
        that dispatches it.  Rounds the gateway drives — continuous
        batching (``serve_queued``), and the backpressure round a submission
        that finds its queue full waits for (``serve_shard``) — are all
        dispatched from one thread, never the loop's, and never run on the
        loop thread.  On the serial backend they run on that thread; on the
        thread backend on each shard's pinned worker."""
        model = make_model()
        # Streams 0-3 hash to shard 1 and streams 4-7 to shard 0.
        streams, events = multi_stream_events(seed=3, num_events=80, num_streams=8)
        rounds, dispatches = [], []
        original_round = ShardWorker._drain_round

        def round_spy(shard, epoch):
            rounds.append((shard.shard_id, threading.get_ident()))
            return original_round(shard, epoch)

        monkeypatch.setattr(ShardWorker, "_drain_round", round_spy)
        for name in ("serve_queued", "serve_shard"):
            original = getattr(ServingCluster, name)

            def dispatch_spy(cluster, *args, _name=name, _original=original):
                dispatches.append((_name, threading.get_ident()))
                return _original(cluster, *args)

            monkeypatch.setattr(ServingCluster, name, dispatch_spy)

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                max_queue=2,
                engine=engine_config(),
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            loop_thread = threading.get_ident()
            # Back-to-back submissions: only a full queue makes one wait.
            for event in events:
                assert (await gateway.submit(event)).admitted
            during_submits = len(rounds)
            await settle(gateway)
            driven, dispatched = list(rounds), list(dispatches)
            await gateway.close()
            return loop_thread, during_submits, driven, dispatched

        loop_thread, during_submits, driven, dispatched = asyncio.run(scenario())
        assert during_submits > 0
        assert {name for name, _ in dispatched} == {"serve_queued", "serve_shard"}
        threads = {ident for _, ident in driven}
        dispatchers = {ident for _, ident in dispatched}
        assert loop_thread not in threads | dispatchers
        assert len(dispatchers) == 1
        if executor == "serial":
            assert threads == dispatchers
        else:
            for shard_id in (0, 1):
                assert len({ident for sid, ident in driven if sid == shard_id}) == 1
        assert {sid for sid, _ in driven} == {0, 1}

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_full_queue_rounds_alone_keep_per_stream_parity(self, executor):
        """Without ``auto_drain`` the only rounds before the final flush are
        the ones full queues wait for: every submission is admitted with its
        queue at the bound, and the decisions those rounds and the flush
        publish match one sequential engine per stream."""
        model = make_model()
        streams, events = multi_stream_events(seed=8, num_events=80)
        expected = reference_decisions(model, streams, events)

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                max_queue=2,
                auto_drain=False,
                engine=engine_config(),
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            sink = gateway.cluster.subscribe(BufferedSink())
            for event in events:
                result = await gateway.submit(event)
                assert result.admitted and result.decisions == ()
                assert result.queue_depth <= 2
            stats = gateway.stats()
            await gateway.close()
            return stats, sink.take()

        stats, published = asyncio.run(scenario())
        assert stats["rounds"] > 0
        assert stats["drained"] == len(events) - sum(stats["queue_depths"])
        assert_per_stream_parity(by_stream(published), expected)


class TestDecisionStreamStart:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_iterator_started_mid_publish_sees_every_decision_once(self, executor):
        """A sink subscribed ahead of the gateway holds the cluster's fan-out
        in the middle of a drain's publication while a ``decisions()``
        iterator starts on the loop.  The iterator still sees every decision
        exactly once, in publication order: the backlog before it started,
        the batch in flight and everything after."""
        model = make_model()
        streams, events = multi_stream_events(seed=61, num_events=90)

        class HoldingSink(DecisionSink):
            def __init__(self):
                self.armed = False
                self.holding = threading.Event()
                self.release = threading.Event()

            def publish_all(self, decisions):
                if self.armed:
                    self.armed = False
                    self.holding.set()
                    assert self.release.wait(timeout=10)

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                auto_drain=False,
                engine=engine_config(),
            )
            cluster = ServingCluster(model, SPEC, config)
            holder = cluster.subscribe(HoldingSink())
            published = cluster.subscribe(BufferedSink())
            gateway = AsyncServingGateway(cluster=cluster)
            for event in events[:30]:
                await gateway.submit(event)
            await gateway.drain()
            for event in events[30:60]:
                await gateway.submit(event)
            holder.armed = True
            drain = asyncio.create_task(gateway.drain())
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, holder.holding.wait, 10)
            seen = []

            async def consume():
                async for decision in gateway.decisions():
                    seen.append(decision)

            consumer = asyncio.create_task(consume())
            await asyncio.sleep(0)  # the iterator starts while the batch is held
            holder.release.set()
            assert await drain
            for event in events[60:]:
                await gateway.submit(event)
            await gateway.flush()
            await gateway.close()
            await asyncio.wait_for(consumer, timeout=10)
            cluster.close()
            return seen, published.take()

        seen, published = asyncio.run(scenario())
        assert len(published) > 0
        assert seen == published


class TestRestoreDeliverySemantics:
    """Pinned semantics: snapshots capture serving state, not deliveries.

    A restore neither rescinds nor re-fires anything already delivered.
    Replaying events re-emits the replayed decisions to sinks and to the
    decision stream, exactly as the pull API hands the caller the replayed
    lists, while per-key futures fire at most once, on the first emission.
    """

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_futures_do_not_double_fire_across_restore(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=23, num_events=160)
        snap_at, restore_at = 60, 110

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                futures = {
                    (stream_id, f"k{index}"): gateway.result(stream_id, f"k{index}")
                    for stream_id in streams
                    for index in range(4)
                }
                for event in events[:snap_at]:
                    await gateway.submit(event)
                await gateway.drain()
                snapshot = await gateway.snapshot()
                for event in events[snap_at:restore_at]:
                    await gateway.submit(event)
                await gateway.drain()
                fired = {
                    registry_key: future.result()
                    for registry_key, future in futures.items()
                    if future.done()
                }
                order_before = {s: gateway.stream_decisions(s) for s in streams}
                await gateway.restore(snapshot)
                sink = gateway.cluster.subscribe(BufferedSink())
                for event in events[snap_at:]:
                    await gateway.submit(event)
                    await asyncio.sleep(0)
                await gateway.flush()
                replayed = sink.take()
                # the replay re-emitted keys whose futures had already fired
                refired = [
                    sd for sd in replayed if (sd.stream_id, sd.decision.key) in fired
                ]
                assert refired
                assert all(
                    sd.decision is not fired[(sd.stream_id, sd.decision.key)]
                    for sd in refired
                )
                for registry_key, decision in fired.items():
                    assert futures[registry_key].result() is decision
                    assert gateway.decided(*registry_key) is decision
                    assert (await gateway.result(*registry_key)) is decision
                for stream_id in streams:
                    order = gateway.stream_decisions(stream_id)
                    assert order[: len(order_before[stream_id])] == order_before[stream_id]
                    assert len({d.key for d in order}) == len(order)

        asyncio.run(scenario())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_unresolved_futures_survive_restore_and_resolve_on_replay(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=31, num_events=140)
        cut = 90

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                for event in events[:cut]:
                    await gateway.submit(event)
                await gateway.drain()
                snapshot = await gateway.snapshot()
                pending = sorted(
                    (stream_id, key)
                    for stream_id in streams
                    for key in gateway.cluster.session(stream_id).undecided_keys()
                )
                assert pending
                stream_id, key = pending[0]
                future = gateway.result(stream_id, key)
                assert gateway.stats()["pending_futures"] == 1
                await gateway.restore(snapshot)
                assert not future.done()
                for event in events[cut:]:
                    await gateway.submit(event)
                await gateway.flush()
                decision = await asyncio.wait_for(future, timeout=5)
                assert decision.key == key
                assert gateway.decided(stream_id, key) is decision
                stats = gateway.stats()
                assert stats["num_shards"] == 2  # the cluster's stats, extended
                assert stats["pending_futures"] == 0
                assert stats["resolved_keys"] == sum(
                    len(gateway.stream_decisions(s)) for s in streams
                )

        asyncio.run(scenario())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sinks_see_replayed_emissions_like_the_pull_api(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=29, num_events=120)
        snap_at, restore_at = 40, 70

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            sink = gateway.cluster.subscribe(BufferedSink())

            async def serve(batch):
                for event in batch:
                    await gateway.submit(event)
                    await asyncio.sleep(0)

            await serve(events[:snap_at])
            await gateway.drain()
            snapshot = await gateway.snapshot()
            await serve(events[snap_at:restore_at])
            await gateway.drain()
            await gateway.restore(snapshot)
            await serve(events[snap_at:])
            await gateway.close()
            pushed = [d async for d in gateway.decisions()]
            return sink.take(), pushed

        sunk, pushed = asyncio.run(scenario())
        emitted = [(sd.stream_id, sd.decision.key) for sd in sunk]
        assert len(set(emitted)) < len(emitted)  # the replay re-emitted some
        # the decision stream tracked the published sequence exactly,
        # replay included
        assert pushed == sunk


class TestFlushStream:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_flush_stream_flushes_only_its_stream(self, executor):
        """Both streams share one shard and every arrival is still queued:
        ``flush_stream`` drains the shard, so the sibling stream is served
        exactly as a plain drain serves it, and only the target stream's
        undecided keys are force-decided (``halt_threshold=1.0`` keeps keys
        pending until a flush or an eviction decides them)."""
        model = make_model()
        streams, events = multi_stream_events(seed=11, num_events=60, num_streams=2)
        target, other = streams
        config = ClusterConfig(
            **backend(executor),
            num_shards=1,
            batch_size=4,
            auto_drain=False,
            engine=engine_config(halt_threshold=1.0),
        )

        with ServingCluster(model, SPEC, config) as reference:
            for event in events:
                reference.submit(event)
            drained = reference.drain()
            other_undecided = reference.session(other).undecided_keys()
            target_undecided = reference.session(target).undecided_keys()
        assert other_undecided and target_undecided

        async def scenario():
            async with AsyncServingGateway(model, SPEC, config) as gateway:
                for event in events:
                    await gateway.submit(event)
                flushed = await gateway.flush_stream(target)
                assert gateway.cluster.session(target).undecided_keys() == set()
                assert gateway.cluster.session(other).undecided_keys() == other_undecided
                return flushed, gateway.stream_decisions(target)

        flushed, target_order = asyncio.run(scenario())
        assert [sd for sd in flushed if sd.stream_id == other] == [
            sd for sd in drained if sd.stream_id == other
        ]
        forced = {sd.decision.key for sd in flushed[len(drained):]}
        assert forced == target_undecided
        assert target_order[-len(forced):] == [sd.decision for sd in flushed[len(drained):]]


class TestAsyncLifecycle:
    def test_states_and_guards(self):
        model = make_model()
        streams, events = multi_stream_events(seed=23, num_events=60)

        async def scenario():
            # halt_threshold=1.0: keys stay undecided until the final flush
            config = ClusterConfig(
                num_shards=1, batch_size=4, engine=engine_config(halt_threshold=1.0)
            )
            gateway = AsyncServingGateway(model, SPEC, config)
            assert gateway.state == "running"
            target = (events[-1].source, events[-1].key)
            pending = gateway.result(*target)
            for event in events:
                await gateway.submit(event)
            assert not pending.done()
            emitted = await gateway.close()
            assert gateway.state == "closed"
            assert gateway.cluster.state == "closed"
            # the final flush decides the key, so its future resolved
            decision = pending.result()
            assert decision.key == target[1]
            assert (await gateway.close()) == []
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.submit(events[0])
            assert gateway.stats()["gateway_state"] == "closed"
            # post-close result(): a decided key resolves from the registry,
            # and an undecided one never hands out a future that cannot fire
            assert gateway.result(*target).result() is decision
            assert gateway.result("no-such-stream", "ghost").cancelled()
            return emitted

        asyncio.run(scenario())

    def test_wrapped_cluster_stays_open(self):
        model = make_model()
        cluster = ServingCluster(
            model, SPEC, ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
        )
        streams, events = multi_stream_events(seed=29, num_events=40)

        async def scenario():
            async with AsyncServingGateway(cluster=cluster) as gateway:
                for event in events:
                    await gateway.submit(event)
                queued_before = sum(cluster.stats()["queue_depths"])
                assert queued_before
            assert cluster.state == "running"
            # detached, not flushed: nothing was drained or force-decided on
            # behalf of the cluster's other users
            assert sum(cluster.stats()["queue_depths"]) == queued_before
            # the gateway's subscription is gone: new decisions no longer
            # reach it, even with the loop still running to deliver them
            cluster.consume(events, stream_id="post-close")
            assert cluster.flush()
            await asyncio.sleep(0)
            assert gateway.stream_decisions("post-close") == []

        asyncio.run(scenario())
        cluster.close()

    def test_constructor_validation(self):
        model = make_model()
        cluster = ServingCluster(model, SPEC, ClusterConfig(num_shards=1))
        with pytest.raises(ValueError, match="either"):
            AsyncServingGateway()
        with pytest.raises(ValueError, match="not both"):
            AsyncServingGateway(model, SPEC, cluster=cluster)
        cluster.close()

    def test_rejects_use_from_a_second_loop(self):
        model = make_model()
        gateway = AsyncServingGateway(
            model, SPEC, ClusterConfig(num_shards=1, engine=engine_config())
        )
        streams, events = multi_stream_events(seed=31, num_events=5)

        async def first_use():
            await gateway.submit(events[0])

        asyncio.run(first_use())

        async def second_loop_use():
            await gateway.submit(events[1])

        with pytest.raises(RuntimeError, match="different event loop"):
            asyncio.run(second_loop_use())
        gateway._cluster.close()

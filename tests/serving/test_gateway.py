"""ServingGateway / StreamHandle: per-stream push delivery and futures.

The contract under test: handles and futures are a pure addressing layer
over the cluster's push delivery — every future resolves with exactly the
decision the pull API returns for that (stream, key), per-stream decision
lists match the sequential single-stream reference, and snapshot/restore
never re-fires or resurrects a delivery (futures fire at most once, on the
first emission).
"""

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving import (
    BufferedSink,
    ClusterConfig,
    EngineConfig,
    OnlineClassificationEngine,
    ServingCluster,
    ServingGateway,
)
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


def reference_decisions(model, streams, events, **overrides):
    engines = {
        stream_id: OnlineClassificationEngine(model, SPEC, engine_config(**overrides))
        for stream_id in streams
    }
    ordered = {stream_id: [] for stream_id in streams}
    for event in events:
        ordered[event.source].extend(engines[event.source].offer(event))
    for stream_id, engine in engines.items():
        ordered[stream_id].extend(engine.flush())
    return ordered


def make_gateway(num_shards=2, executor="serial", **config_overrides) -> ServingGateway:
    kwargs = dict(
        backend(executor), num_shards=num_shards, batch_size=4, engine=engine_config()
    )
    kwargs.update(config_overrides)
    return ServingGateway(make_model(), SPEC, ClusterConfig(**kwargs))


class TestHandlesAndFutures:
    @pytest.mark.parametrize("executor", ["serial", "thread", "thread-shared"])
    def test_per_stream_decisions_match_reference(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=42)
        expected = reference_decisions(model, streams, events)
        with ServingGateway(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        ) as gateway:
            handles = {stream_id: gateway.stream(stream_id) for stream_id in streams}
            for event in events:
                handles[event.source].offer(event)
            gateway.flush()
            for stream_id in streams:
                got = handles[stream_id].decisions()
                reference = expected[stream_id]
                assert [d.key for d in got] == [d.key for d in reference], stream_id
                for mine, ref in zip(got, reference):
                    assert mine.predicted == ref.predicted
                    assert mine.confidence == pytest.approx(ref.confidence, abs=1e-9)
                    assert mine.observations == ref.observations

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_future_resolves_when_decision_is_emitted(self, executor):
        streams, events = multi_stream_events(seed=7)
        gateway = make_gateway(executor=executor)
        handle = gateway.stream(streams[0])
        future = handle.result("k0")
        assert not future.done()
        for event in events:
            gateway.submit(event)
        gateway.flush()
        assert future.done() and not future.cancelled()
        decision = future.result(timeout=0)
        assert decision.key == "k0"
        assert handle.decided("k0") is decision
        # the same (stream, key) future is shared while pending, and a
        # post-decision request resolves immediately
        assert handle.result("k0").result(timeout=0) is decision
        gateway.close()

    def test_stream_handles_are_cached_and_isolated(self):
        gateway = make_gateway()
        first = gateway.stream("a")
        assert gateway.stream("a") is first
        assert gateway.stream("b") is not first
        gateway.close()

    def test_handle_close_flushes_only_its_stream(self):
        model = make_model()
        streams, events = multi_stream_events(seed=11, num_streams=2)
        # Route both streams through one shard so the handle-close drain
        # covers the other stream's queued arrivals too.
        gateway = ServingGateway(
            model, SPEC, ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
        )
        for event in events:
            gateway.submit(event)
        target, other = streams[0], streams[1]
        flushed = gateway.stream(target).close()
        session_target = gateway.cluster.session(target)
        session_other = gateway.cluster.session(other)
        assert session_target.undecided_keys() == set()
        # the returned decisions are the target stream's newest emissions
        if flushed:
            assert gateway.stream_decisions(target)[-len(flushed):] == flushed
        # the sibling stream was only drained, never force-decided: its
        # queued arrivals are gone but flush() can still find work later
        assert session_other is not None
        gateway.close()


class TestGatewayLifecycle:
    def test_close_resolves_then_cancels_and_guards(self):
        streams, events = multi_stream_events(seed=13, num_events=80)
        gateway = make_gateway()
        resolvable = gateway.result(streams[0], "k0")
        never = gateway.result("stream-without-traffic", "ghost-key")
        for event in events:
            gateway.submit(event)
        emitted = gateway.close()
        assert gateway.state == "closed"
        assert isinstance(emitted, list)
        assert resolvable.done() and not resolvable.cancelled()
        assert never.cancelled()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.submit(events[0])
        assert gateway.close() == []  # idempotent
        # post-close result(): decided keys resolve from the registry, an
        # undecided one comes back already cancelled instead of pending
        # forever (the cancellation sweep cannot fire again)
        post = gateway.result(streams[0], "k0")
        assert post.done() and not post.cancelled()
        assert gateway.result("stream-without-traffic", "ghost-key").cancelled()

    def test_owned_cluster_is_closed_with_the_gateway(self):
        gateway = make_gateway()
        cluster = gateway.cluster
        gateway.close()
        assert cluster.state == "closed"

    def test_wrapped_cluster_survives_gateway_close(self):
        model = make_model()
        cluster = ServingCluster(
            model, SPEC, ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
        )
        gateway = ServingGateway(cluster=cluster)
        streams, events = multi_stream_events(seed=17, num_events=40)
        for event in events:
            gateway.submit(event)
        queued_before = sum(cluster.stats()["queue_depths"])
        gateway.close()
        assert cluster.state == "running"
        # a wrapped cluster is detached, not flushed: nothing was force-
        # decided or drained on behalf of the other users of the cluster
        assert sum(cluster.stats()["queue_depths"]) == queued_before
        # the gateway's subscription is gone: new decisions no longer reach it
        cluster.consume(events, stream_id="post-close")
        cluster.flush()
        assert gateway.stream_decisions("post-close") == []
        cluster.close()

    def test_constructor_argument_validation(self):
        model = make_model()
        cluster = ServingCluster(model, SPEC, ClusterConfig(num_shards=1))
        with pytest.raises(ValueError, match="either"):
            ServingGateway()
        with pytest.raises(ValueError, match="not both"):
            ServingGateway(model, SPEC, cluster=cluster)
        cluster.close()

    def test_stats_extends_cluster_stats(self):
        gateway = make_gateway()
        gateway.result("s", "pending-key")
        stats = gateway.stats()
        assert stats["gateway_state"] == "running"
        assert stats["pending_futures"] == 1
        assert stats["resolved_keys"] == 0
        assert "num_shards" in stats
        gateway.close()


class TestRestoreDeliverySemantics:
    """Pinned semantics: snapshots capture serving state, not deliveries.

    A restore neither rescinds nor re-fires anything already delivered;
    replaying events re-emits the replayed decisions to *sinks* (exactly as
    the pull API hands the caller the replayed lists), while per-key
    futures fire at most once, on the first emission.
    """

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_futures_do_not_double_fire_across_restore(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=23, num_events=160)
        cut = 100
        gateway = ServingGateway(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        )
        for event in events[:cut]:
            gateway.submit(event)
        gateway.drain()
        snapshot = gateway.cluster.snapshot()
        decided_before = {
            stream_id: list(gateway.stream_decisions(stream_id)) for stream_id in streams
        }
        resolved = {
            (stream_id, decision.key): gateway.result(stream_id, decision.key)
            for stream_id in streams
            for decision in decided_before[stream_id]
        }
        first_results = {key: future.result(timeout=0) for key, future in resolved.items()}

        gateway.cluster.restore(snapshot)
        for event in events[cut:]:
            gateway.submit(event)
        gateway.flush()

        # replayed re-emissions never re-fired or swapped a resolved future
        for registry_key, future in resolved.items():
            assert future.result(timeout=0) is first_results[registry_key]
        # the registry kept the first emission for every replayed key
        for stream_id in streams:
            replay_view = gateway.stream_decisions(stream_id)
            assert replay_view[: len(decided_before[stream_id])] == decided_before[stream_id]
        gateway.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sinks_see_replayed_emissions_like_the_pull_api(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=29, num_events=120)
        cut = 70
        gateway = ServingGateway(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        )
        sink = gateway.subscribe(BufferedSink())
        returned = []
        for event in events[:cut]:
            returned.extend(gateway.submit(event).decisions)
        returned.extend(gateway.drain())
        snapshot = gateway.cluster.snapshot()
        gateway.cluster.restore(snapshot)
        for event in events[cut:]:
            returned.extend(gateway.submit(event).decisions)
        returned.extend(gateway.flush())
        # push delivery tracked the pull API exactly — including the replay
        assert sink.take() == returned
        gateway.close()

    def test_unresolved_futures_survive_restore_and_resolve_on_replay(self):
        model = make_model()
        streams, events = multi_stream_events(seed=31, num_events=140)
        cut = 90
        gateway = ServingGateway(
            model, SPEC, ClusterConfig(num_shards=2, batch_size=4, engine=engine_config())
        )
        for event in events[:cut]:
            gateway.submit(event)
        gateway.drain()
        snapshot = gateway.cluster.snapshot()
        # a key only decided in the post-snapshot suffix
        pending = []
        for stream_id in streams:
            session = gateway.cluster.session(stream_id)
            if session is not None:
                pending.extend((stream_id, key) for key in sorted(session.undecided_keys(), key=str))
        if not pending:
            pytest.skip("seed produced no undecided keys at the cut")
        stream_id, key = pending[0]
        future = gateway.result(stream_id, key)
        gateway.cluster.restore(snapshot)
        for event in events[cut:]:
            gateway.submit(event)
        gateway.flush()
        emitted_keys = {d.key for d in gateway.stream_decisions(stream_id)}
        if key in emitted_keys:
            assert future.done() and future.result(timeout=0).key == key
        gateway.close()

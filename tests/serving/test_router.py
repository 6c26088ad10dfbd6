"""ClusterRouter: consistent-hash placement, live migration, node recovery.

The router-tier additions to the parity matrix:

* **migration parity** — a stream migrated between nodes mid-run produces a
  decision sequence bit-identical to an unmoved reference (sessions *and*
  queued arrivals ride along),
* **drain parity** — emptying a whole node rebalances its streams across
  the survivors with zero decision drift,
* **recovery** — a node whose shards are killed mid-run comes back via
  checkpoint-restore + journal replay with at-least-once delivery: every
  admitted arrival is re-served and the first emission per (stream, key)
  matches an unfailed reference.
"""

import json

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving import (
    BufferedSink,
    CheckpointConfig,
    ClusterConfig,
    ClusterRouter,
    EngineConfig,
    FaultInjector,
    FaultSpec,
    OnlineClassificationEngine,
    ServingCluster,
    SupervisorConfig,
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


def group_by_stream(stream_decisions):
    grouped = {}
    for sd in stream_decisions:
        grouped.setdefault(sd.stream_id, []).append(sd.decision)
    return grouped


def make_node(model, executor="serial", num_shards=2, **config_overrides):
    kwargs = dict(
        backend(executor),
        num_shards=num_shards,
        batch_size=4,
        engine=engine_config(),
    )
    kwargs.update(config_overrides)
    return ServingCluster(model, SPEC, ClusterConfig(**kwargs))


class TestRouting:
    def test_placement_is_consistent_and_overridable(self):
        model = make_model()
        with ClusterRouter([make_node(model), make_node(model)]) as router:
            assert router.node_index("alpha") == router.node_index("alpha")
            assert router.node_of("alpha") is router.nodes[router.node_index("alpha")]
            with pytest.raises(ValueError, match="no node"):
                router.migrate_stream("alpha", 5)
        with pytest.raises(ValueError, match="at least one"):
            ClusterRouter([])

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_stats_and_health_merge_and_round_trip_json(self, executor):
        model = make_model()
        streams, events = multi_stream_events(seed=71, num_events=60)
        with ClusterRouter([make_node(model, executor), make_node(model, executor)]) as router:
            for event in events:
                router.submit(event)
            router.flush()
            stats = router.stats()
            health = router.health()
            assert stats["num_nodes"] == 2
            assert stats["state"] == "running"
            assert stats["num_decided"] == sum(
                node["num_decided"] for node in stats["nodes"]
            )
            assert len(stats["journal_depths"]) == 2
            assert health["breaker_open_nodes"] == []
            # the network tier ships these verbatim as JSON bodies
            assert json.loads(json.dumps(stats)) == stats
            assert json.loads(json.dumps(health)) == health
        assert router.state == "closed"


class TestLiveMigration:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_mid_run_migration_is_decision_identical(self, executor):
        """The parity-matrix migration leg: move one live stream between
        nodes mid-run; every stream's decisions stay bit-identical to the
        unmoved per-stream reference."""
        model = make_model()
        streams, events = multi_stream_events(seed=67, num_events=160)
        expected = reference_decisions(model, streams, events)
        nodes = [make_node(model, executor), make_node(model, executor)]
        with ClusterRouter(nodes) as router:
            sink = router.subscribe(BufferedSink())
            half = len(events) // 2
            for event in events[:half]:
                router.submit(event)
            moved = streams[0]
            source = router.node_index(moved)
            target = 1 - source
            assert router.migrate_stream(moved, target) is True
            assert router.node_index(moved) == target
            assert moved in nodes[target].stream_ids()
            assert moved not in nodes[source].stream_ids()
            # re-migrating to the current node is a no-op
            assert router.migrate_stream(moved, target) is False
            for event in events[half:]:
                router.submit(event)
            router.flush()
            got = sink.take()
        assert_per_stream_parity(group_by_stream(got), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_migration_carries_queued_arrivals(self, executor):
        """auto_drain off: the moved stream has undrained arrivals queued,
        and they are served on the target node, not dropped."""
        model = make_model()
        streams, events = multi_stream_events(seed=73, num_events=120)
        expected = reference_decisions(model, streams, events)
        nodes = [
            make_node(model, executor, auto_drain=False, max_queue=256),
            make_node(model, executor, auto_drain=False, max_queue=256),
        ]
        with ClusterRouter(nodes) as router:
            sink = router.subscribe(BufferedSink())
            half = len(events) // 2
            for event in events[:half]:
                router.submit(event)  # everything still queued (no draining)
            moved = streams[1]
            source = router.node_index(moved)
            target = 1 - source
            router.migrate_stream(moved, target)
            for event in events[half:]:
                router.submit(event)
            router.flush()
            got = sink.take()
        assert_per_stream_parity(group_by_stream(got), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_drain_node_rebalances_across_survivors(self, executor):
        model = make_model()
        streams, events = multi_stream_events(
            seed=83, num_events=180, num_streams=6
        )
        expected = reference_decisions(model, streams, events)
        nodes = [make_node(model, executor) for _ in range(3)]
        with ClusterRouter(nodes) as router:
            sink = router.subscribe(BufferedSink())
            half = len(events) // 2
            for event in events[:half]:
                router.submit(event)
            departing = nodes[0].stream_ids()
            placements = router.drain_node(0)
            assert sorted(placements, key=repr) == departing
            assert nodes[0].stream_ids() == []
            assert all(target in (1, 2) for target in placements.values())
            for stream_id, target in placements.items():
                assert router.node_index(stream_id) == target
            for event in events[half:]:
                router.submit(event)
            # drained node stays empty: nothing routes back to it
            assert nodes[0].stream_ids() == []
            router.flush()
            got = sink.take()
        assert_per_stream_parity(group_by_stream(got), expected)
        with ClusterRouter([make_node(model)]) as single:
            with pytest.raises(ValueError, match="only node"):
                single.drain_node(0)


class TestNodeRecovery:
    def test_failed_node_is_reserved_via_checkpoint_and_journal(self):
        """The acceptance leg: kill one node's shard mid-round, recover
        through the router (checkpoint restore + journal replay), and verify
        at-least-once delivery — every (stream, key) the unfailed reference
        decides is decided here, and the *first* emission per (stream, key)
        matches the reference bit-for-bit."""
        model = make_model()
        streams, events = multi_stream_events(seed=61, num_events=160)
        expected = reference_decisions(model, streams, events)
        # One failure opens a shard's breaker for the rest of the test, so
        # the failed shard serves nothing more until the router recovers it.
        supervision = SupervisorConfig(
            checkpoint=CheckpointConfig(every_rounds=2),
            failure_threshold=1,
            backoff_base_s=600.0,
            backoff_max_s=600.0,
        )
        injectors = [FaultInjector(), FaultInjector()]
        nodes = [
            make_node(model, "thread", supervision=supervision, faults=injector)
            for injector in injectors
        ]
        with ClusterRouter(nodes) as router:
            sink = router.subscribe(BufferedSink())
            quarter = len(events) // 4
            for event in events[:quarter]:
                router.submit(event)
            # a mid-run checkpoint: recovery replays only the tail journal
            router.checkpoint()
            assert router.stats()["journal_depths"] == [0, 0]
            for event in events[quarter : 2 * quarter]:
                router.submit(event)
            victim = router.node_index(streams[0])
            assert streams[0] in nodes[victim].stream_ids()
            # Fail the victim in-process: its next round dies mid-encode,
            # and the shard's own recovery loses that round's arrivals.
            injectors[victim].add(
                FaultSpec(site="session-encode", action="kill", limit=1)
            )
            nodes[victim].drain()
            assert injectors[victim].fired("session-encode") == 1
            assert nodes[victim].health()["lost_arrivals"] > 0
            assert nodes[victim].health()["breaker_open"]
            replayed = router.recover_node(victim)
            assert nodes[victim].health()["breaker_open"] == []
            assert isinstance(replayed, list)
            # the journal survives recovery (a second crash could replay it)
            assert router.stats()["journal_depths"][victim] > 0
            for event in events[2 * quarter :]:
                router.submit(event)
            router.flush()
            got = sink.take()

        # at-least-once: duplicates allowed (replays are bit-identical
        # repeats), losses are not
        first_emission = {}
        for sd in got:
            first_emission.setdefault((sd.stream_id, sd.decision.key), sd.decision)
        for stream_id, reference in expected.items():
            for ref in reference:
                mine = first_emission.get((stream_id, ref.key))
                assert mine is not None, (stream_id, ref.key)
                assert mine.predicted == ref.predicted, (stream_id, ref.key)
                assert mine.confidence == pytest.approx(ref.confidence, abs=1e-9)
                assert mine.observations == ref.observations, (stream_id, ref.key)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_recovery_replay_is_deterministic(self, executor):
        """Recovering an *unfailed* node is a pure replay: the re-emitted
        decisions equal the originals field-for-field."""
        model = make_model()
        streams, events = multi_stream_events(seed=89, num_events=80)
        with ClusterRouter([make_node(model, executor), make_node(model, executor)]) as router:
            sink = router.subscribe(BufferedSink())
            for event in events:
                router.submit(event)
            originals = {
                (sd.stream_id, sd.decision.key): sd.decision for sd in sink.take()
            }
            replayed = router.recover_node(0)
            for sd in replayed:
                original = originals.get((sd.stream_id, sd.decision.key))
                if original is None:
                    continue  # key decided only at flush time, not inline
                assert sd.decision.predicted == original.predicted
                assert sd.decision.confidence == pytest.approx(
                    original.confidence, abs=1e-9
                )

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_degraded_submit_is_not_journaled(self, executor):
        """Only admitted arrivals enter a node's recovery journal: a degraded
        one was never queued, so recovery must not replay it."""
        model = make_model()
        _, events = multi_stream_events(seed=41, num_events=12)
        node = make_node(
            model,
            executor,
            num_shards=1,
            auto_drain=False,
            supervision=SupervisorConfig(
                failure_threshold=2, backoff_base_s=600.0, backoff_max_s=600.0
            ),
            faults=FaultInjector(specs=[FaultSpec(site="shard-round", limit=2)]),
        )
        with ClusterRouter([node]) as router:
            for event in events[:6]:
                assert router.submit(event).admitted
            node.drain()  # two failing rounds open the breaker
            assert router.health()["breaker_open_nodes"] == [0]
            degraded = [router.submit(event) for event in events[6:]]
            assert {result.status for result in degraded} == {"degraded"}
            assert router.stats()["journal_depths"] == [6]
            router.recover_node(0)
            assert node.stats()["queue_depths"] == [6]
            node.flush()
            assert node.stats()["drained"] == 6

"""Online serving: classify live flows as their packets arrive.

Run with::

    python examples/online_serving.py

The paper's motivating scenario (Fig. 1) is a router that must label each
network flow while its packets are still arriving.  This example

1. trains a small KVEC model offline on a synthetic Traffic-App analogue,
2. saves it as a checkpoint and reloads it (the deployment path),
3. replays the *test* flows through the arrival simulator as one live packet
   stream with overlapping flows,
4. serves the stream with the online engine over a bounded sliding window,
5. reports running accuracy / earliness / latency from the decision monitor,
6. serves the same flows again as a *multi-stream* process on the sharded
   :class:`ServingCluster` (hash-routed shards, cross-stream batched
   encoding): a subscribed :class:`BufferedSink` receives every decision
   pushed, and each submission returns its explicit admission outcome as a
   :class:`SubmitResult` status,
7. turns on the parallel backend: bursty Zipf-skewed traffic served by a
   thread worker pool (one pinned worker per shard) in drain rounds of at
   most 16 arrivals; explicit drains overlap all shards on real cores, and
   the report prints each shard's realized round width,
8. kills a shard mid-run with the seeded :class:`FaultInjector` and watches
   the supervision layer recover it from its periodic checkpoint — the
   replayed decisions match a never-crashed run for every non-lost arrival,
   and ``stats()["health"]`` shows the breaker/restore accounting,
9. serves from an event loop through the :class:`AsyncServingGateway` —
   awaitable submission with one concurrent submitter task per stream, an
   ``async for`` decision stream and a per-key decision future from
   ``result()`` (stdlib asyncio only),
10. puts the cluster on the network: a stdlib-only
    :class:`ServingHTTPServer` front end (admission statuses as HTTP codes,
    decisions as a chunked NDJSON push stream consumed by
    :class:`ServingHTTPClient`), then goes horizontal with the
    :class:`ClusterRouter` — two cluster nodes behind consistent-hash
    stream placement, with one live stream *migrated* between nodes
    mid-run and every stream's decisions staying identical to an unmoved
    run.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro.core import KVEC, KVECConfig, KVECTrainer, load_checkpoint, save_checkpoint
from repro.datasets import make_traffic_app
from repro.eval import summarize
from repro.eval.evaluator import prepare_tangled_splits
from repro.serving import (
    ArrivalSimulator,
    AsyncServingGateway,
    BufferedSink,
    ClusterConfig,
    CheckpointConfig,
    ClusterRouter,
    DecisionMonitor,
    EngineConfig,
    FaultInjector,
    FaultSpec,
    MultiStreamConfig,
    MultiStreamSimulator,
    OnlineClassificationEngine,
    ServingCluster,
    ServingHTTPClient,
    ServingHTTPServer,
    SimulatorConfig,
    SupervisorConfig,
    ThroughputMeter,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Offline training
    # ------------------------------------------------------------------ #
    dataset = make_traffic_app(num_flows=70, seed=13)
    splits = prepare_tangled_splits(dataset, concurrency=4, seed=0)
    config = KVECConfig(
        d_model=24, num_blocks=2, num_heads=2, d_state=32, dropout=0.0,
        epochs=12, batch_size=8, learning_rate=3e-3, beta=0.001,
    )
    model = KVEC(dataset.spec, dataset.num_classes, config)
    KVECTrainer(model).train(splits.train)
    offline = summarize(model.predict_tangle(splits.test[0]))
    print(f"offline sanity check: accuracy={offline.accuracy:.2f} earliness={offline.earliness:.2%}")

    # ------------------------------------------------------------------ #
    # 2. Checkpoint round trip (how a deployment would load the model)
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = save_checkpoint(model, Path(tmp) / "kvec-traffic-app")
        served_model = load_checkpoint(checkpoint)
    print("checkpoint reloaded")

    # ------------------------------------------------------------------ #
    # 3. A live packet stream built from the held-out test flows
    # ------------------------------------------------------------------ #
    test_flows = []
    for tangle in splits.test:
        test_flows.extend(tangle.per_key_sequences().values())
    simulator = ArrivalSimulator(
        test_flows, SimulatorConfig(arrival_rate=1.5, gap_scale=1.0, max_active=6, seed=1)
    )
    print(f"simulating {len(test_flows)} flows, peak concurrency {simulator.peak_concurrency()}")

    # ------------------------------------------------------------------ #
    # 4. Serve the stream
    # ------------------------------------------------------------------ #
    engine = OnlineClassificationEngine(
        served_model,
        dataset.spec,
        EngineConfig(window_items=512, halt_threshold=0.5, reencode_every=4),
    )
    monitor = DecisionMonitor(labels=simulator.labels, sequence_lengths=simulator.sequence_lengths)
    meter = ThroughputMeter()
    for event in simulator.events():
        meter.tick(event.time)
        for decision in engine.offer(event):
            monitor.observe(decision)
    for decision in engine.flush():
        monitor.observe(decision)

    # ------------------------------------------------------------------ #
    # 5. Report
    # ------------------------------------------------------------------ #
    print()
    print("=== live serving report ===")
    print(monitor.report())
    print(f"arrival throughput   {meter.rate:.2f} packets / simulated time unit")
    print(f"decisions from window truncation: {engine.num_truncated}")

    # ------------------------------------------------------------------ #
    # 6. Multi-stream serving on the sharded cluster, decisions pushed
    # ------------------------------------------------------------------ #
    # The same flows, now partitioned across 4 concurrent stream ids with a
    # Zipf-skewed traffic share (hot streams carry most flows), served by a
    # 2-shard ServingCluster.  Decisions come back *pushed*: a subscribed
    # sink receives every decision in emission order (identical to the
    # returned lists, the parity suite pins this), and every submission
    # returns its admission outcome as a SubmitResult status.  Per-stream
    # decisions are identical to the single-stream engine above.
    traffic = MultiStreamSimulator(
        test_flows,
        MultiStreamConfig(
            num_streams=4,
            stream_skew=1.0,
            simulator=SimulatorConfig(arrival_rate=1.5, max_active=6, seed=2),
        ),
    )
    cluster = ServingCluster(
        served_model,
        dataset.spec,
        ClusterConfig(
            num_shards=2,
            batch_size=8,
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        ),
    )
    # Push delivery: the monitor is fed by a subscription instead of the
    # caller demultiplexing returned lists.
    sink = cluster.subscribe(BufferedSink())
    monitor = DecisionMonitor(labels=traffic.labels, sequence_lengths=traffic.sequence_lengths)
    events_list = list(traffic.events())
    admission = {"accepted": 0, "decided": 0}
    for event in events_list:
        admission[cluster.submit(event).status] += 1
    cluster.flush()
    for stream_decision in sink.take():
        monitor.observe(stream_decision.decision)

    print()
    print("=== cluster report (push delivery, merged across shards) ===")
    print(f"streams: {traffic.stream_share} (Zipf-skewed shares)")
    print(monitor.report())
    stats = cluster.stats()
    print(
        f"cluster: {stats['num_shards']} shards, {stats['num_sessions']} sessions, "
        f"{stats['batch_rounds']} batched rounds covering {stats['batched_rows']} arrivals"
    )
    print(
        f"admission outcomes: {admission['accepted']} accepted, "
        f"{admission['decided']} submissions triggered decisions; "
        f"throughput {stats['items_per_s']:.0f} items/s, "
        f"{stats['decisions_per_s']:.0f} decisions/s (sliding window)"
    )

    # Snapshots deep-copy the serving state (sharing the model weights), so
    # a deployment can checkpoint mid-stream and restore after a failover.
    # Deliveries are not serving state: the restore re-publishes nothing.
    snapshot = cluster.snapshot()
    cluster.restore(snapshot)
    print("snapshot/restore round trip ok")
    cluster.close()

    # ------------------------------------------------------------------ #
    # 7. Parallel shard execution under bursty, skewed traffic
    # ------------------------------------------------------------------ #
    # The same flows once more, now as an on/off *bursty* arrival process
    # (duty-cycle modulated key starts, mean rate preserved) with a strong
    # Zipf stream skew — the worst case for a serial cluster: one hot shard
    # backs up while the others idle.  The thread executor pins each of the
    # 4 shards to its own pool worker, so an explicit drain() runs all
    # shards concurrently (numpy releases the GIL inside the batched GEMMs).
    # A round takes at most batch_size=16 arrivals, one per stream, so how
    # wide rounds really run depends on how many streams each shard holds.
    # Decisions are identical to the serial cluster per stream — the parity
    # suite pins that — only the wall-clock changes.
    bursty = MultiStreamSimulator(
        test_flows,
        MultiStreamConfig(
            num_streams=8,
            stream_skew=1.2,
            simulator=SimulatorConfig(
                arrival_rate=1.5,
                max_active=6,
                seed=3,
                pattern="burst",
                burst_period=24.0,
                burst_duty=0.25,
                burst_floor=0.1,
            ),
        ),
    )
    with ServingCluster(
        served_model,
        dataset.spec,
        ClusterConfig(
            num_shards=4,
            batch_size=16,
            executor="thread",
            auto_drain=False,
            max_queue=4096,
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        ),
    ) as parallel_cluster:
        monitor = DecisionMonitor(
            labels=bursty.labels, sequence_lengths=bursty.sequence_lengths
        )
        # Drain-scheduling serving: submissions enqueue, and every 64th
        # arrival one explicit drain lets the pool overlap all shards.
        for position, event in enumerate(bursty.events()):
            parallel_cluster.submit(event)
            if position % 64 == 63:
                for stream_decision in parallel_cluster.drain():
                    monitor.observe(stream_decision.decision)
        for stream_decision in parallel_cluster.flush():
            monitor.observe(stream_decision.decision)

        print()
        print("=== parallel cluster report (thread executor, batch_size=16) ===")
        print(monitor.report())
        stats = parallel_cluster.stats()
        print(
            f"executor={stats['executor']}  shards={stats['num_shards']}  "
            f"rounds={stats['rounds']}  "
            f"round p50={stats['round_latency_ms']['p50']:.2f}ms "
            f"p99={stats['round_latency_ms']['p99']:.2f}ms"
        )
        mean_widths = [
            round(snap["rows"] / snap["rounds"], 2) if snap["rounds"] else 0.0
            for snap in stats["shard_monitors"]
        ]
        print(f"mean drain-round widths per shard: {mean_widths}")

    # ------------------------------------------------------------------ #
    # 8. Fault injection and checkpoint crash recovery
    # ------------------------------------------------------------------ #
    # Every cluster is supervised: each shard keeps a periodic checkpoint
    # (deep-copied sessions/queue sharing the model weights) plus a journal
    # of admissions since.  Here a seeded FaultInjector kills shard 1 (the
    # shard the four stream ids hash to) mid-encode; the supervisor restores
    # the checkpoint, replays the journal minus the dead round's arrivals,
    # and serving continues — the decisions for every surviving arrival are
    # exactly what a never-crashed run produces (the recovery-parity suite
    # pins this bit-for-bit).
    injector = FaultInjector(
        seed=7,
        specs=[FaultSpec(site="session-encode", action="kill", shard_id=1, after=10, limit=1)],
    )
    faulty_cluster = ServingCluster(
        served_model,
        dataset.spec,
        ClusterConfig(
            num_shards=2,
            batch_size=8,
            supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=8)),
            faults=injector,
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        ),
    )
    recovered = []
    for event in events_list:
        recovered.extend(faulty_cluster.submit(event).decisions)
    recovered.extend(faulty_cluster.flush())
    health = faulty_cluster.health()
    lost = [
        (stream_id, event)
        for shard in faulty_cluster.shards
        for stream_id, event in shard.supervisor.lost_entries
    ]
    faulty_cluster.close()

    # The reference: the same cluster shape, fed everything except the
    # arrivals the dead round consumed (recovery cannot resurrect those —
    # they are the only casualties, and they are accounted, not silent).
    surviving = list(events_list)
    for _, casualty in lost:
        surviving.remove(casualty)
    reference_cluster = ServingCluster(
        served_model,
        dataset.spec,
        ClusterConfig(
            num_shards=2,
            batch_size=8,
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        ),
    )
    reference = []
    for event in surviving:
        reference.extend(reference_cluster.submit(event).decisions)
    reference.extend(reference_cluster.flush())
    reference_cluster.close()

    def first_emissions(decisions):
        firsts = {}
        for stream_decision in decisions:
            key = (stream_decision.stream_id, stream_decision.decision.key)
            firsts.setdefault(key, stream_decision.decision)
        return firsts

    got, want = first_emissions(recovered), first_emissions(reference)
    matches = sum(
        1
        for key, decision in want.items()
        if got[key].predicted == decision.predicted
        and got[key].decision_time == decision.decision_time
    )
    print()
    print("=== fault injection + crash recovery ===")
    print(
        f"injected kill faults fired: {injector.fired()}; "
        f"round failures: {health['failures']}, checkpoint restores: "
        f"{health['restores']}, arrivals lost with the dead round: "
        f"{health['lost_arrivals']}"
    )
    print(
        f"recovery parity: {matches}/{len(want)} first emissions identical "
        f"to a never-crashed reference"
    )
    print(
        f"breaker states: "
        f"{[shard_view['breaker'] for shard_view in health['shards']]}; "
        f"checkpoints taken: {health['checkpoints']}"
    )

    # ------------------------------------------------------------------ #
    # 9. Event-loop serving through the asyncio gateway
    # ------------------------------------------------------------------ #
    # The same multi-stream traffic, served from inside an event loop: one
    # concurrent submitter task per stream (submission only admits the
    # arrival on the loop; the gateway's round thread serves each arrival in
    # its shard's next round, dispatching to the cluster's thread backend)
    # and one consumer task iterating the pushed decision stream.
    # Per-stream decisions remain identical to the sequential reference —
    # only the waiting becomes cooperative.  A per-key future from result()
    # resolves the moment that flow's decision is emitted, by whatever round
    # or flush happens to serve it.
    per_stream = {}
    for event in events_list:
        per_stream.setdefault(event.source, []).append(event)

    async def serve_async():
        config = ClusterConfig(
            num_shards=2,
            batch_size=8,
            executor="thread",
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        )
        async_monitor = DecisionMonitor(
            labels=traffic.labels, sequence_lengths=traffic.sequence_lengths
        )
        async with AsyncServingGateway(served_model, dataset.spec, config) as agw:
            first_event = events_list[0]
            first_flow = agw.result(first_event.source, first_event.key)

            async def consume():
                async for stream_decision in agw.decisions():
                    async_monitor.observe(stream_decision.decision)

            consumer = asyncio.create_task(consume())

            async def submit_stream(stream_id):
                for event in per_stream[stream_id]:
                    await agw.submit(event)

            await asyncio.gather(*(submit_stream(s) for s in per_stream))
            await agw.close()
            await consumer
        return async_monitor, first_flow

    async_monitor, first_flow = asyncio.run(serve_async())
    print()
    print("=== asyncio gateway report (concurrent submitter tasks) ===")
    print(async_monitor.report())
    if first_flow.done() and not first_flow.cancelled():
        decision = first_flow.result()
        print(
            f"future for flow {decision.key!r}: class {decision.predicted} "
            f"after {decision.observations} packets (confidence {decision.confidence:.2f})"
        )

    # ------------------------------------------------------------------ #
    # 10. The network tier: HTTP front end + consistent-hash router
    # ------------------------------------------------------------------ #
    # First the vertical hop: the same flows, submitted over real loopback
    # sockets.  ServingHTTPServer fronts an AsyncServingGateway with a tiny
    # stdlib HTTP/1.1 dialect — POST one arrival per request (admission
    # status doubles as the response code: accepted -> 202, degraded -> 503
    # while the shard's circuit breaker is open; a full shard queue is
    # served a round, then admitted), and GET /v1/decisions turns the
    # connection into a chunked NDJSON push stream, which carries every
    # decision.
    async def serve_over_http():
        config = ClusterConfig(
            num_shards=2,
            batch_size=8,
            engine=EngineConfig(window_items=256, halt_threshold=0.5, reencode_every=2),
        )
        async with ServingHTTPServer(
            model=served_model,
            spec=dataset.spec,
            config=config,
            port=0,  # ephemeral loopback port, published after start
            heartbeat_s=0.2,
        ) as server:
            client = ServingHTTPClient(server.host, server.port)
            pushed = []

            async def consume():
                async for decision in client.decisions():
                    pushed.append(decision)

            consumer = asyncio.create_task(consume())
            while server.stats()["server"]["decision_streams"] == 0:
                await asyncio.sleep(0.01)  # wait for the push stream to attach
            statuses = {}
            for event in events_list:
                result = await client.submit(event.source, event)
                statuses[result.status] = statuses.get(result.status, 0) + 1
            final = await client.shutdown()  # drains, flushes, closes the gateway
            await consumer  # the push stream ends when the gateway closes
            await client.close()
            return statuses, pushed, final

    statuses, pushed, final = asyncio.run(serve_over_http())
    print()
    print("=== network tier report (loopback HTTP front end) ===")
    print(
        f"admission over the wire: {statuses}; "
        f"decisions pushed while serving: {len(pushed)}, "
        f"returned by the shutdown flush: {len(final)}"
    )

    # Then the horizontal hop: two cluster *nodes* behind a ClusterRouter.
    # Stream placement is the same process-independent CRC32 consistent
    # hash the shards use, plus a migration overlay: migrate_stream() moves
    # a live stream's sessions *and* queued arrivals to another node
    # mid-run, and the decision sequences stay identical to a run that
    # never moved anything.
    def route(migrate):
        def node():
            return ServingCluster(
                served_model,
                dataset.spec,
                ClusterConfig(
                    num_shards=2,
                    batch_size=8,
                    engine=EngineConfig(
                        window_items=256, halt_threshold=0.5, reencode_every=2
                    ),
                ),
            )

        moved = min(event.source for event in events_list)
        with ClusterRouter([node(), node()]) as router:
            sink = router.subscribe(BufferedSink())
            half = len(events_list) // 2
            for event in events_list[:half]:
                router.submit(event)
            hop = None
            if migrate:
                source = router.node_index(moved)
                target = 1 - source
                router.migrate_stream(moved, target)
                hop = (moved, source, target)
            for event in events_list[half:]:
                router.submit(event)
            router.flush()
            per_stream = {}
            for stream_decision in sink.take():
                per_stream.setdefault(stream_decision.stream_id, []).append(
                    (
                        stream_decision.decision.key,
                        stream_decision.decision.predicted,
                        stream_decision.decision.decision_time,
                    )
                )
            return per_stream, hop

    migrated, hop = route(migrate=True)
    unmoved, _ = route(migrate=False)
    moved_stream, source, target = hop
    print(
        f"router: migrated live stream {moved_stream!r} from node {source} "
        f"to node {target} mid-run"
    )
    print(
        f"per-stream decisions identical to the unmigrated run: "
        f"{migrated == unmoved}"
    )
    assert migrated == unmoved


if __name__ == "__main__":
    main()

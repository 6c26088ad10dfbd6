"""Loopback end-to-end suite for the HTTP serving tier.

Every test runs a real :class:`ServingHTTPServer` on an ephemeral loopback
port and drives it with the wire-speaking :class:`ServingHTTPClient` — every
byte crosses a socket, nothing shortcuts into the gateway.  Stdlib
``asyncio.run`` only (no pytest-asyncio), same as the aio suite.

Covered here: per-stream decision parity over HTTP, the admission-status →
response-code mapping (accepted/degraded, and a full queue served then
admitted), decision
push-stream ordering against the published decisions, malformed-request
400s (and a seeded wire fuzz), and the running → draining → closed
lifecycle.  Submissions answer with their admission outcome only; every
test reads decisions from the ``/v1/decisions`` push stream.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving import (
    SUBMIT_STATUSES,
    AsyncServingGateway,
    BufferedSink,
    CheckpointConfig,
    ClusterConfig,
    EngineConfig,
    FaultInjector,
    FaultSpec,
    OnlineClassificationEngine,
    ServingCluster,
    SupervisorConfig,
)
from repro.serving.net import ServingHTTPClient, ServingHTTPServer, protocol
from repro.serving.net.client import NetDecision, ServingUnavailableError
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


def assert_wire_parity(got_by_stream, expected):
    """Wire-side NetDecisions against reference engine Decisions."""
    for stream_id, reference in expected.items():
        got = got_by_stream.get(stream_id, [])
        assert [d.key for d in got] == [d.key for d in reference], stream_id
        for mine, ref in zip(got, reference):
            assert mine.predicted == ref.predicted, (stream_id, mine.key)
            assert mine.confidence == pytest.approx(ref.confidence, abs=1e-9)
            assert mine.observations == ref.observations, (stream_id, mine.key)


def assert_stream_parity(got, reference):
    """One stream's wire-side NetDecisions against reference Decisions."""
    assert [d.key for d in got] == [d.key for d in reference]
    for mine, ref in zip(got, reference):
        assert mine.predicted == ref.predicted, mine.key
        assert mine.confidence == pytest.approx(ref.confidence, abs=1e-9)
        assert mine.observations == ref.observations, mine.key


def group_by_stream(decisions):
    grouped = {}
    for decision in decisions:
        grouped.setdefault(decision.stream_id, []).append(decision)
    return grouped


async def _wait_for_stream_registration(server, count=1, timeout=5.0):
    """Poll until `count` decision-stream subscriptions are live server-side."""
    deadline = time.monotonic() + timeout
    while server.stats()["server"]["decision_streams"] < count:
        if time.monotonic() > deadline:
            raise AssertionError("decision stream never registered")
        await asyncio.sleep(0.01)


async def consume_push_stream(client, server):
    """Collect the push stream in a task, once the server has registered it.

    The stream ends when the gateway closes, so awaiting the task after a
    shutdown yields every decision the server published.
    """
    pushed = []

    async def consume():
        async for decision in client.decisions():
            pushed.append(decision)

    task = asyncio.create_task(consume())
    await _wait_for_stream_registration(server)
    return pushed, task


class TestHTTPParity:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_http_submissions_match_reference_per_stream(self, executor):
        """Submitting over the wire changes nothing: decision-for-decision
        parity with one sequential single-stream engine per stream."""
        model = make_model()
        streams, events = multi_stream_events(seed=41, num_events=160)
        expected = reference_decisions(model, streams, events)

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                engine=engine_config(),
            )
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    pushed, consumer = await consume_push_stream(client, server)
                    for event in events:
                        result = await client.submit(event.source, event)
                        # admission only: the decisions travel on the push stream
                        assert (result.http_status, result.status) == (202, "accepted")
                        assert result.decisions == ()
                    await client.shutdown()
                    await asyncio.wait_for(consumer, timeout=10)
            return pushed

        pushed = asyncio.run(scenario())
        assert_wire_parity(group_by_stream(pushed), expected)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_decision_push_stream_matches_published_decisions(self, executor):
        """The chunked NDJSON push stream carries exactly the decisions the
        cluster published, field-for-field in the same order."""
        model = make_model()
        streams, events = multi_stream_events(seed=43, num_events=120)

        async def scenario():
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                published = server.gateway.cluster.subscribe(BufferedSink())
                async with ServingHTTPClient(server.host, server.port) as client:
                    pushed, consumer = await consume_push_stream(client, server)
                    for event in events:
                        await client.submit(event.source, event)
                    await client.shutdown()
                    await asyncio.wait_for(consumer, timeout=10)
            return published.take(), pushed

        published, pushed = asyncio.run(scenario())
        on_the_wire = [
            NetDecision.from_wire(protocol.decision_to_wire(sd)) for sd in published
        ]
        assert len(pushed) > 0
        assert pushed == on_the_wire  # NetDecision dataclasses: field equality

    def test_vanished_stream_consumer_is_unsubscribed(self):
        """Breaking out of the client iteration closes the connection; the
        heartbeat detects the dead socket and tears the subscription down."""
        model = make_model()
        streams, events = multi_stream_events(seed=47, num_events=60)

        async def scenario():
            config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.05
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    async def consume_one():
                        async for decision in client.decisions():
                            return decision  # abandon the stream immediately

                    consumer = asyncio.create_task(consume_one())
                    await _wait_for_stream_registration(server)
                    for event in events:
                        await client.submit(event.source, event)
                    first = await asyncio.wait_for(consumer, timeout=10)
                    assert first is not None
                    # the server notices on its next heartbeat/write attempt
                    deadline = time.monotonic() + 5.0
                    while server.stats()["server"]["decision_streams"]:
                        assert time.monotonic() < deadline, "sink never unsubscribed"
                        await asyncio.sleep(0.02)
                    # serving keeps flowing without the dead stream
                    flushed = await client.flush()
                    return flushed

        flushed = asyncio.run(scenario())
        assert isinstance(flushed, list)


class TestStatusMapping:
    def test_accepted_code_and_pushed_decisions(self):
        """Every admitted submission answers 202 with no inline decisions,
        and the rounds that serve them push their decisions before any
        drain, flush or shutdown."""
        model = make_model()

        async def scenario():
            config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    pushed, consumer = await consume_push_stream(client, server)
                    results = []
                    for step in range(8):
                        results.append(
                            await client.submit(
                                "alpha", key=f"k{step % 2}",
                                value=[step % 8, step % 2], time=float(step),
                            )
                        )
                    deadline = time.monotonic() + 10.0
                    while not pushed:
                        assert time.monotonic() < deadline, "no decision was pushed"
                        await asyncio.sleep(0.01)
                    before_shutdown = list(pushed)
                    await client.shutdown()
                    await asyncio.wait_for(consumer, timeout=10)
            return results, before_shutdown

        results, before_shutdown = asyncio.run(scenario())
        for result in results:
            assert (result.http_status, result.status) == (202, "accepted")
            assert result.decisions == ()
        assert before_shutdown and all(d.stream_id == "alpha" for d in before_shutdown)

    def test_full_queue_is_served_then_admitted(self):
        """A submission that finds its shard's queue full waits for one
        round of that shard, then is admitted: 202 like any other."""
        model = make_model()

        async def scenario():
            config = ClusterConfig(
                num_shards=1,
                batch_size=4,
                max_queue=2,
                auto_drain=False,
                engine=engine_config(),
            )
            async with ServingHTTPServer(model=model, spec=SPEC, config=config) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    results = []
                    for step in range(3):
                        results.append(
                            await client.submit(
                                "alpha", key="k0", value=[step, 0], time=float(step)
                            )
                        )
                    stats = server.gateway.cluster.stats()
                    await client.shutdown()
            return results, stats

        results, stats = asyncio.run(scenario())
        assert [(r.http_status, r.status) for r in results] == [(202, "accepted")] * 3
        # One round (one arrival: both queued ones are the same stream's)
        # made room for the third.
        assert stats["rounds"] == 1 and stats["drained"] == 1
        assert stats["queue_depths"] == [2]

    def test_status_map_is_total_over_the_submit_statuses(self):
        """Every admission outcome has one HTTP code with a reason phrase;
        none asks the client to back off (no 429), since a full queue is
        served, not refused."""
        assert set(protocol.STATUS_TO_HTTP) == set(SUBMIT_STATUSES)
        for status, code in protocol.STATUS_TO_HTTP.items():
            assert code in protocol.REASONS, status
        assert 429 not in protocol.STATUS_TO_HTTP.values()

    def test_degraded_maps_to_503(self):
        """A breaker-open shard serves degraded submissions as 503s."""
        model = make_model()
        streams, events = multi_stream_events(seed=15, num_events=8)
        injector = FaultInjector(
            specs=[FaultSpec(site="shard-round", shard_id=0, limit=2)]
        )
        config = ClusterConfig(
            num_shards=1,
            batch_size=2,
            auto_drain=False,
            supervision=SupervisorConfig(
                failure_threshold=2,
                backoff_base_s=10.0,
                backoff_max_s=40.0,
                checkpoint=CheckpointConfig(every_rounds=2),
            ),
            faults=injector,
            engine=engine_config(),
        )
        cluster = ServingCluster(model, SPEC, config)
        for event in events[:4]:
            cluster.submit(event)
        for _ in range(2):  # two failing rounds trip the threshold-2 breaker
            cluster.drain()
        assert cluster.health()["breaker_open"] == [0]

        async def scenario():
            gateway = AsyncServingGateway(cluster=cluster)
            async with ServingHTTPServer(gateway) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    result = await client.submit(
                        events[4].source, events[4]
                    )
                    health = await client.health()
            await gateway.close()
            return result, health

        result, health = asyncio.run(scenario())
        cluster.close()
        assert result.http_status == 503
        assert result.status == "degraded"
        assert health["breaker_open"] == [0]
        assert health["degraded_submits"] == 1


class TestMalformedRequests:
    def _server(self, model):
        config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
        return ServingHTTPServer(model=model, spec=SPEC, config=config)

    def test_framing_and_body_errors_return_400(self):
        model = make_model()

        async def scenario():
            async with self._server(model) as server:
                client = ServingHTTPClient(server.host, server.port)
                async with client:
                    target = f"{server.host}:{server.port}"
                    # unparseable request line
                    garbage = await client.raw_request(b"NOT A REQUEST\r\n\r\n")
                    # body that is not JSON
                    bad_json = await client.raw_request(
                        protocol.render_request(
                            "POST", "/v1/streams/s/events", target, b"{nope"
                        )
                    )
                    # structurally valid JSON, invalid event payloads
                    unknown_field = await client.request(
                        "POST",
                        "/v1/streams/s/events",
                        {"time": 0.1, "key": "k", "value": [0, 0], "bogus": 1},
                    )
                    out_of_range = await client.request(
                        "POST",
                        "/v1/streams/s/events",
                        {"time": 0.1, "key": "k", "value": [9, 0]},
                    )
                    wrong_arity = await client.request(
                        "POST",
                        "/v1/streams/s/events",
                        {"time": 0.1, "key": "k", "value": [1]},
                    )
                    not_a_dict = await client.request(
                        "POST", "/v1/streams/s/events", [1, 2, 3]
                    )
                    # idle-timeout expiry is gone: its old verb, with a
                    # payload it used to refuse, is an unknown verb now
                    expire = await client.request(
                        "POST", "/v1/admin/expire", {"now": float("nan")}
                    )
                    # non-finite numbers: json.dumps writes NaN/Infinity
                    # literals, and 1e400 parses to inf
                    non_finite = [
                        await client.request(
                            "POST",
                            "/v1/streams/s/events",
                            {"time": bad, "key": "k", "value": [0, 0]},
                        )
                        for bad in (float("nan"), float("inf"), float("-inf"))
                    ]
                    overflowing_time = await client.raw_request(
                        protocol.render_request(
                            "POST",
                            "/v1/streams/s/events",
                            target,
                            b'{"time": 1e400, "key": "k", "value": [0, 0]}',
                        )
                    )
                    # snapshot ids that are not strings (and not hashable)
                    bad_snapshot_ids = [
                        await client.request(
                            "POST", "/v1/admin/restore", {"snapshot_id": bad}
                        )
                        for bad in ([1], {"a": 1})
                    ]
                    # none of it reached the stream: a valid arrival is
                    # still admitted and served without a failed round
                    valid = await client.request(
                        "POST",
                        "/v1/streams/s/events",
                        {"time": 0.2, "key": "k", "value": [0, 0]},
                    )
                    # older than the stream's newest item: refused before
                    # admission instead of failing the round that serves it
                    out_of_order = await client.request(
                        "POST",
                        "/v1/streams/s/events",
                        {"time": 0.1, "key": "k", "value": [0, 0]},
                    )
                    await client.drain()
                    health = await client.health()
            return valid, health, expire, [
                garbage, bad_json, unknown_field, out_of_range,
                wrong_arity, not_a_dict,
                *non_finite, overflowing_time, out_of_order,
                *bad_snapshot_ids,
            ]

        valid, health, expire, responses = asyncio.run(scenario())
        for response in responses:
            assert response.status == 400
            assert "error" in response.json()
        assert expire.status == 404
        assert expire.json() == {"error": "unknown admin verb 'expire'"}
        assert valid.status in (200, 202)
        assert health["failures"] == 0
        assert health["lost_arrivals"] == 0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_wire_fuzz_rejects_malformed_and_serves_the_rest(self, executor):
        """Seeded fuzz: malformed submissions mixed with valid ones on one
        connection.  Every malformed one answers 400 — non-finite numbers,
        oversize codes and lists, unknown fields, wrong types, out-of-order
        times — no shard breaker trips, and per stream the decisions pushed
        for the valid subsequence equal a clean run's (and the sequential
        reference's)."""
        model = make_model()
        streams, events = multi_stream_events(seed=67, num_events=120)
        expected = reference_decisions(model, streams, events)
        rng = np.random.default_rng(71)
        valid = {"key": "k0", "value": [1, 0]}
        kinds = [
            # non-finite numbers (json.dumps writes NaN/Infinity literals)
            lambda t: dict(valid, time=float("nan")),
            lambda t: dict(valid, time=float("inf")),
            lambda t: dict(valid, time=float("-inf")),
            lambda t: b'{"time": 1e400, "key": "k0", "value": [1, 0]}',
            # oversize codes and lists
            lambda t: dict(valid, time=t, value=[8, 0]),
            lambda t: dict(valid, time=t, value=[10 ** 30, 0]),
            lambda t: dict(valid, time=t, value=[1, 0, 0]),
            lambda t: dict(valid, time=t, value=[-1, 0]),
            # unknown or missing fields
            lambda t: dict(valid, time=t, bogus=1),
            lambda t: {"time": t, "key": "k0"},
            # wrong types
            lambda t: dict(valid, time=str(t)),
            lambda t: dict(valid, time=True),
            lambda t: dict(valid, time=t, key=[1]),
            lambda t: dict(valid, time=t, key=True),
            lambda t: dict(valid, time=t, value="1,0"),
            lambda t: dict(valid, time=t, value=[0.5, 0]),
            lambda t: dict(valid, time=t, source=5),
            lambda t: [t, "k0", [1, 0]],
        ]
        plan = []  # (stream_id, payload, is_valid)
        newest = {}
        for event in events:
            while rng.random() < 0.5:
                stream_id = streams[int(rng.integers(len(streams)))]
                if stream_id in newest and rng.random() < 0.25:
                    # older than the stream's newest admitted item
                    bad = dict(valid, time=newest[stream_id] - 0.5)
                else:
                    bad = kinds[int(rng.integers(len(kinds)))](newest.get(stream_id, 0.0))
                plan.append((stream_id, bad, False))
            plan.append((event.source, protocol.event_to_wire(event), True))
            newest[event.source] = event.time

        async def serve(fuzzed):
            config = ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            )
            codes = []
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    target = f"{server.host}:{server.port}"
                    pushed, consumer = await consume_push_stream(client, server)
                    # Every submission on one keep-alive connection.
                    reader, writer = await asyncio.open_connection(server.host, server.port)
                    for stream_id, payload, is_valid in plan:
                        if not (fuzzed or is_valid):
                            continue
                        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                        writer.write(
                            protocol.render_request(
                                "POST", f"/v1/streams/{stream_id}/events", target, body
                            )
                        )
                        response = await protocol.read_response(reader)
                        codes.append((is_valid, response.status))
                    writer.close()
                    await writer.wait_closed()
                    health = await client.health()
                    await client.shutdown()
                    await asyncio.wait_for(consumer, timeout=10)
            return codes, health, pushed

        fuzzed_codes, health, fuzzed = asyncio.run(serve(fuzzed=True))
        clean_codes, _, clean = asyncio.run(serve(fuzzed=False))
        malformed = [code for is_valid, code in fuzzed_codes if not is_valid]
        assert len(malformed) > 50
        assert set(malformed) == {400}
        assert {code for is_valid, code in fuzzed_codes if is_valid} == {202}
        assert {code for _, code in clean_codes} == {202}
        assert health["breaker_open"] == []
        assert health["failures"] == 0
        fuzzed, clean = group_by_stream(fuzzed), group_by_stream(clean)
        assert sorted(fuzzed) == sorted(clean)
        for stream_id in clean:
            assert_stream_parity(fuzzed[stream_id], clean[stream_id])
        assert_wire_parity(fuzzed, expected)

    def test_unknown_paths_and_methods(self):
        model = make_model()

        async def scenario():
            async with self._server(model) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    wrong_root = await client.request("GET", "/v2/stats")
                    wrong_leaf = await client.request("POST", "/v1/streams/s/nope")
                    get_events = await client.request("GET", "/v1/streams/s/events")
                    post_stats = await client.request("POST", "/v1/stats")
                    bad_admin = await client.request("POST", "/v1/admin/explode")
                    with pytest.raises(RuntimeError, match="restore"):
                        await client.restore("snap-404")
            return wrong_root, wrong_leaf, get_events, post_stats, bad_admin

        wrong_root, wrong_leaf, get_events, post_stats, bad_admin = asyncio.run(
            scenario()
        )
        assert wrong_root.status == 404
        assert wrong_leaf.status == 404
        assert get_events.status == 405
        assert post_stats.status == 405
        assert bad_admin.status == 404


class TestLifecycleOverHTTP:
    def test_shutdown_then_submit_is_503(self):
        model = make_model()
        streams, events = multi_stream_events(seed=53, num_events=40)

        expected = reference_decisions(model, streams, events)

        async def scenario():
            config = ClusterConfig(num_shards=2, batch_size=4, engine=engine_config())
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    pushed, consumer = await consume_push_stream(client, server)
                    for event in events:
                        await client.submit(event.source, event)
                    await client.shutdown()
                    # the push stream ends with the gateway, after the flush
                    await asyncio.wait_for(consumer, timeout=10)
                    # reads are still served after the drain...
                    stats = await client.stats()
                    health = await client.health()
                    # ...but submissions are refused for lifecycle reasons
                    with pytest.raises(ServingUnavailableError) as refused:
                        await client.submit("alpha", key="k0", value=[0, 0])
                    # cluster-wide admin ops on a closed gateway 503 too
                    with pytest.raises(RuntimeError):
                        await client.flush()
            return pushed, stats, health, refused.value

        pushed, stats, health, refusal = asyncio.run(scenario())
        assert_wire_parity(group_by_stream(pushed), expected)
        assert stats["gateway_state"] == "closed"
        assert stats["server"]["state"] == "draining"
        assert refusal.http_status == 503

    def test_flush_stream_on_a_closed_gateway_raises_its_status(self):
        """The per-stream flush checks the response status as the admin
        verbs do: a refusal is a ``RuntimeError`` naming the 503, not a
        misread body."""
        model = make_model()

        async def scenario():
            config = ClusterConfig(num_shards=1, batch_size=4, engine=engine_config())
            async with ServingHTTPServer(model=model, spec=SPEC, config=config) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    await client.shutdown()
                    with pytest.raises(RuntimeError, match=r"/v1/admin/flush failed \(503\)"):
                        await client.flush()
                    with pytest.raises(
                        RuntimeError,
                        match=r"/v1/streams/alpha/flush failed \(503\).*cluster is closed",
                    ):
                        await client.flush_stream("alpha")

        asyncio.run(scenario())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_snapshot_restore_round_trip_over_http(self, executor):
        """Admin snapshot/restore replays the tail bit-identically.

        Rounds run only at the admin drain and flushes (``auto_drain`` off),
        so their composition, and with it every confidence to the last bit,
        does not depend on timing: the replay after the restore equals the
        first pass decision for decision, in the flush responses and on the
        push stream, and the run up to the restore matches one sequential
        engine per stream.
        """
        model = make_model()
        streams, events = multi_stream_events(seed=59, num_events=80)
        split = 50
        expected = reference_decisions(model, streams, events)

        async def scenario():
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                auto_drain=False,
                engine=engine_config(),
            )
            async with ServingHTTPServer(
                model=model, spec=SPEC, config=config, heartbeat_s=0.2
            ) as server:
                async with ServingHTTPClient(server.host, server.port) as client:
                    pushed, consumer = await consume_push_stream(client, server)
                    for event in events[:split]:
                        await client.submit(event.source, event)
                    served = await client.drain()
                    snapshot_id = await client.snapshot()
                    for event in events[split:]:
                        await client.submit(event.source, event)
                    first = await client.flush()
                    await client.restore(snapshot_id)
                    for event in events[split:]:
                        await client.submit(event.source, event)
                    second = await client.flush()
                    await client.shutdown()
                    await asyncio.wait_for(consumer, timeout=10)
            return served, first, second, pushed

        served, first, second, pushed = asyncio.run(scenario())
        assert len(served) > 0 and len(first) > 0
        assert first == second  # bit-identical replay through the wire
        assert pushed == served + first + second
        assert_wire_parity(group_by_stream(served + first), expected)

    def test_constructor_validation(self):
        model = make_model()
        with pytest.raises(ValueError, match="either"):
            ServingHTTPServer()
        gateway = AsyncServingGateway(
            model, SPEC, ClusterConfig(num_shards=1, engine=engine_config())
        )
        with pytest.raises(ValueError, match="either"):
            ServingHTTPServer(gateway, model=model)
        with pytest.raises(ValueError, match="max_buffered"):
            ServingHTTPServer(model=model, spec=SPEC, max_buffered=-1)
        gateway.cluster.close()

    def test_rejected_max_buffered_starts_no_worker_pool(self):
        """The bound is checked before the owned gateway is built, so a
        rejected server leaves no shard worker threads behind."""
        def shard_workers():
            return {
                thread for thread in threading.enumerate()
                if thread.name.startswith("shard-worker")
            }

        before = shard_workers()
        config = ClusterConfig(executor="thread", num_shards=2, engine=engine_config())
        with pytest.raises(ValueError, match="max_buffered"):
            ServingHTTPServer(model=make_model(), spec=SPEC, config=config, max_buffered=-1)
        assert shard_workers() <= before


class TestServeEntrypoint:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_selftest_smoke(self, capsys, executor):
        from repro.serve import main as serve_main

        argv = ["--selftest", "40", "--port", "0", "--seed", "1", "--executor", executor]
        assert serve_main(argv) == 0
        out = capsys.readouterr().out
        assert "selftest: 40 events" in out

    def test_executor_choices_are_the_two_backends(self, capsys):
        from repro.serve import build_parser

        parser = build_parser()
        for executor in ("serial", "thread"):
            assert parser.parse_args(["--executor", executor]).executor == executor
        with pytest.raises(SystemExit):
            parser.parse_args(["--executor", "process"])
        assert "invalid choice: 'process'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--batch-size", "0", "batch_size must be a positive int"),
            ("--num-shards", "0", "num_shards must be positive"),
            ("--window", "0", "window_items must be positive"),
            ("--max-buffered", "-1", "max_buffered must be >= 0"),
            ("--port", "70000", "port must be in 0-65535"),
            ("--selftest", "-5", "--selftest must be at least 1"),
        ],
    )
    def test_bad_numeric_flag_is_a_usage_error(self, capsys, flag, value, message):
        """A value the serving stack rejects exits 2 with usage, not a
        traceback."""
        from repro.serve import main as serve_main

        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--selftest", "1", "--port", "0", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.serve")
        assert message in err

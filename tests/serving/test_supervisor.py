"""Deterministic fault-tolerance suite: injector, breaker, supervision.

Three layers, bottom up:

* unit tests of :class:`FaultInjector` / :class:`FaultSpec` scheduling and of
  the :class:`CircuitBreaker` state machine under an injected clock,
* executor-level tests of leak counting in :meth:`ThreadExecutor.close`,
* cluster-level supervision: crash recovery restores the last checkpoint and
  replays the admission journal so per-stream decisions for every non-lost
  arrival exactly match a reference cluster that never saw the lost arrivals
  (the recovery-parity leg of the parity matrix — fast deterministic shapes
  here, the randomized sweep lives in ``test_chaos.py`` under ``stress``),
  graceful degradation (``status="degraded"``, the submit changing
  nothing) while a breaker is open, half-open probes closing it again, a
  flush or expiry the open breaker stopped deciding no queued key, a
  graceful stop probing an open breaker once and counting what it leaves,
  a slow round waited for on both backends, a round outrun by a restore
  counting nothing, and the ``stats()["health"]`` view tying it together.
"""

import asyncio
import copy
import pickle
import threading
import time
from collections import deque
from typing import Optional

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.incremental import IncrementalEncoderState
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import SlidingWindow, StreamEvent
from repro.serving.aio import AsyncServingGateway
from repro.serving.cluster import (
    ClusterConfig,
    OutOfOrderEventError,
    ServingCluster,
    _detached_sessions_copy,
)
from repro.serving.engine import Decision, EngineConfig, StreamSession
from repro.serving.faults import (
    FaultInjectingSink,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ShardKilled,
)
from repro.serving.parallel import ThreadExecutor
from repro.serving.sinks import BufferedSink
from repro.serving.supervisor import (
    CheckpointConfig,
    CircuitBreaker,
    SupervisorConfig,
)
from tests.serving.backends import backend

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

TOLERANCE = 1e-9


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


def multi_stream_events(seed: int, num_events: int = 120, num_streams: int = 6, num_keys: int = 4):
    # 6 streams cover both shards of a 2-shard cluster (stable_key_slot puts
    # stream-0..3 on shard 1 and stream-4..5 on shard 0).
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


def run_cluster(model, events, config) -> tuple:
    """Submit every event, flush, return (cluster, all emitted decisions)."""
    cluster = ServingCluster(model, SPEC, config)
    emitted = []
    for event in events:
        emitted.extend(cluster.submit(event).decisions)
    emitted.extend(cluster.flush())
    return cluster, emitted


def remove_lost(events, lost):
    """The reference workload: ``events`` minus each lost entry (once each)."""
    remaining = list(events)
    for stream_id, lost_event in lost:
        for index, event in enumerate(remaining):
            if event == lost_event and event.source == stream_id:
                del remaining[index]
                break
    return remaining


def first_emissions(decisions):
    """First emitted decision per (stream, key) — the at-least-once view."""
    firsts = {}
    for stream_decision in decisions:
        key = (stream_decision.stream_id, stream_decision.decision.key)
        if key not in firsts:
            firsts[key] = stream_decision.decision
    return firsts


def assert_recovery_parity(got, reference):
    """First emissions must match the lost-free reference bit-for-bit."""
    got_firsts = first_emissions(got)
    ref_firsts = first_emissions(reference)
    assert set(got_firsts) == set(ref_firsts)
    for key, ref in ref_firsts.items():
        mine = got_firsts[key]
        assert mine.predicted == ref.predicted, key
        assert mine.confidence == pytest.approx(ref.confidence, abs=TOLERANCE)
        assert mine.observations == ref.observations, key
        assert mine.decision_time == ref.decision_time, key


class FakeClock:
    """A hand-advanced monotonic clock for breaker backoff tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# fault injector
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="shard-round", action="explode")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="shard-round", probability=1.5)
        with pytest.raises(ValueError, match="delay_s > 0"):
            FaultSpec(site="shard-round", action="delay")
        with pytest.raises(ValueError, match="after"):
            FaultSpec(site="shard-round", after=-1)
        with pytest.raises(ValueError, match="limit"):
            FaultSpec(site="shard-round", limit=0)

    def test_fire_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector().fire("not-a-site")

    def test_unarmed_injector_is_inert(self):
        injector = FaultInjector(seed=1)
        for _ in range(10):
            injector.fire("shard-round", 0)
        assert injector.fired() == 0
        assert injector.stats() == {}

    def test_after_and_limit(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="shard-round", after=2, limit=2)]
        )
        outcomes = []
        for _ in range(6):
            try:
                injector.fire("shard-round", 0)
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        # Hits 1-2 skipped (after), 3-4 fire (limit), 5-6 exhausted.
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]
        assert injector.fired("shard-round") == 2

    def test_shard_scoping(self):
        injector = FaultInjector(specs=[FaultSpec(site="shard-round", shard_id=1)])
        injector.fire("shard-round", 0)  # other shard: no fault
        with pytest.raises(InjectedFault):
            injector.fire("shard-round", 1)

    def test_kill_raises_shard_killed(self):
        injector = FaultInjector(specs=[FaultSpec(site="executor-job", action="kill")])
        with pytest.raises(ShardKilled, match="injected kill fault"):
            injector.fire("executor-job", 3)

    def test_delay_sleeps_and_continues(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="sink-publish", action="delay", delay_s=0.05, limit=1)]
        )
        start = time.perf_counter()
        injector.fire("sink-publish")
        assert time.perf_counter() - start >= 0.04
        assert injector.fired() == 1

    def test_probabilistic_firing_is_seed_deterministic(self):
        def firing_pattern(seed):
            injector = FaultInjector(
                seed=seed, specs=[FaultSpec(site="shard-round", probability=0.5)]
            )
            pattern = []
            for _ in range(32):
                try:
                    injector.fire("shard-round", 0)
                    pattern.append(0)
                except InjectedFault:
                    pattern.append(1)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert 0 < sum(firing_pattern(7)) < 32


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, **overrides):
        clock = FakeClock()
        kwargs = dict(
            failure_threshold=3,
            backoff_base_s=1.0,
            backoff_factor=2.0,
            backoff_max_s=8.0,
            clock=clock,
        )
        kwargs.update(overrides)
        return CircuitBreaker(SupervisorConfig(**kwargs)), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_backoff_elapse_half_opens_and_probe_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # backoff elapsed: half-open probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.current_backoff_s == 1.0  # backoff reset

    def test_failed_probe_reopens_with_doubled_backoff(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe fails: reopen, backoff doubled to 4
        assert breaker.state == "open"
        clock.advance(2.0)  # the second backoff (2s) has now elapsed...
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(3.9)  # ...but the third (4s) has not
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_backoff_caps_at_max(self):
        breaker, clock = self.make(backoff_max_s=4.0)
        for round_index in range(6):
            for _ in range(3):
                breaker.record_failure()
            clock.advance(100.0)
            assert breaker.allow()
        assert breaker.current_backoff_s <= 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            SupervisorConfig(failure_threshold=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            SupervisorConfig(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_max_s"):
            SupervisorConfig(backoff_base_s=2.0, backoff_max_s=1.0)
        with pytest.raises(ValueError, match="sink_quarantine_after"):
            SupervisorConfig(sink_quarantine_after=0)
        with pytest.raises(ValueError, match="every_rounds"):
            CheckpointConfig(every_rounds=-1)


# --------------------------------------------------------------------- #
# executor: leak accounting
# --------------------------------------------------------------------- #
class TestThreadExecutorFaults:
    def test_close_counts_and_warns_about_leaked_workers(self):
        executor = ThreadExecutor(num_shards=1, join_timeout=0.1)
        release = threading.Event()
        executor.submit(0, release.wait)
        with pytest.warns(RuntimeWarning, match="leaked 1 worker"):
            executor.close()
        assert executor.leaked_workers == 1
        release.set()

    def test_clean_close_leaks_nothing(self):
        executor = ThreadExecutor(num_shards=3, join_timeout=0.5)
        jobs = [executor.submit(shard, lambda shard=shard: shard + 1) for shard in range(3)]
        assert [job.wait() for job in jobs] == [1, 2, 3]
        executor.close()
        assert executor.leaked_workers == 0

    def test_join_timeout_validation(self):
        with pytest.raises(ValueError, match="join_timeout"):
            ThreadExecutor(num_shards=1, join_timeout=0.0)


# --------------------------------------------------------------------- #
# crash recovery parity (the fast deterministic chaos-gate leg)
# --------------------------------------------------------------------- #
class TestCrashRecoveryParity:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("action", ["kill", "raise"])
    def test_mid_encode_crash_recovers_with_parity(self, executor, action):
        """A shard killed mid-encode rewinds to its checkpoint; decisions for
        every non-lost arrival match a cluster that never saw the lost ones."""
        model = make_model()
        _, events = multi_stream_events(seed=11)
        injector = FaultInjector(
            specs=[FaultSpec(site="session-encode", action=action, shard_id=0, after=3, limit=1)]
        )
        config = ClusterConfig(
            **backend(executor),
            num_shards=2,
            batch_size=4,
            supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=2)),
            faults=injector,
            engine=engine_config(),
        )
        cluster, got = run_cluster(model, events, config)
        lost = [
            entry for shard in cluster.shards for entry in shard.supervisor.lost_entries
        ]
        health = cluster.health()
        cluster.close()

        assert injector.fired("session-encode") == 1
        assert health["failures"] == 1 and health["restores"] == 1
        assert health["lost_arrivals"] == len(lost) > 0

        reference_cluster, reference = run_cluster(
            model,
            remove_lost(events, lost),
            ClusterConfig(num_shards=2, batch_size=4, engine=engine_config()),
        )
        reference_cluster.close()
        assert_recovery_parity(got, reference)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("site", ["shard-round", "executor-job"])
    def test_pre_dequeue_crash_loses_nothing(self, site, executor):
        """Faults before any arrival is consumed recover with an empty lost
        set — the full workload replays to exact parity."""
        model = make_model()
        _, events = multi_stream_events(seed=12)
        injector = FaultInjector(specs=[FaultSpec(site=site, shard_id=0, after=2, limit=1)])
        config = ClusterConfig(
            **backend(executor),
            num_shards=2,
            batch_size=4,
            auto_drain=(site == "shard-round"),
            supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=2)),
            faults=injector,
            engine=engine_config(),
        )
        cluster = ServingCluster(model, SPEC, config)
        got = []
        for event in events:
            got.extend(cluster.submit(event).decisions)
            if site == "executor-job" and cluster.shards[0].queue_depth >= 4:
                got.extend(cluster.drain())
        got.extend(cluster.flush())
        health = cluster.health()
        assert injector.fired(site) == 1
        assert health["restores"] == 1
        assert health["lost_arrivals"] == 0
        assert all(not shard.supervisor.lost_entries for shard in cluster.shards)
        cluster.close()

        reference_cluster, reference = run_cluster(
            model,
            events,
            ClusterConfig(num_shards=2, batch_size=4, engine=engine_config()),
        )
        reference_cluster.close()
        assert_recovery_parity(got, reference)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_unfaulted_supervised_cluster_matches_unsupervised(self, executor):
        """Supervision at default cadence is pure bookkeeping: identical
        decision lists with and without it."""
        model = make_model()
        _, events = multi_stream_events(seed=13)
        supervised_cluster, supervised = run_cluster(
            model,
            events,
            ClusterConfig(
                **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
            ),
        )
        health = supervised_cluster.health()
        assert health["failures"] == 0
        assert health["checkpoints"] >= len(supervised_cluster.shards)
        supervised_cluster.close()

        baseline_cluster, baseline = run_cluster(
            model,
            events,
            ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=0)),
                engine=engine_config(),
            ),
        )
        baseline_cluster.close()
        assert [
            (d.stream_id, d.decision.key, d.decision.predicted, d.decision.confidence)
            for d in supervised
        ] == [
            (d.stream_id, d.decision.key, d.decision.predicted, d.decision.confidence)
            for d in baseline
        ]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_checkpoint_cadence_is_observed(self, executor):
        model = make_model()
        _, events = multi_stream_events(seed=14, num_events=60)
        config = ClusterConfig(
            **backend(executor),
            num_shards=1,
            batch_size=2,
            supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=5)),
            engine=engine_config(),
        )
        cluster, _ = run_cluster(model, events, config)
        supervisor = cluster.shards[0].supervisor
        rounds = cluster.shards[0].monitor.rounds
        # Initial checkpoint + one per full cadence window.
        assert supervisor.checkpoints == 1 + rounds // 5
        assert cluster.health()["shards"][0]["rounds_since_checkpoint"] == rounds % 5
        cluster.close()


# --------------------------------------------------------------------- #
# checkpoint copies: nothing mutable shared with the live state
# --------------------------------------------------------------------- #
#: Leaves a copy may share with its original: immutable values and the
#: frozen arrival records.
_SHAREABLE = (type(None), bool, int, float, str, bytes, np.generic, Item, StreamEvent)

#: Every kind of mutable object a saturated session holds, per engine
#: mode; the walk must meet each, or it proves nothing about the copy
#: lines for it.
_SESSION_KINDS = {
    StreamSession, SlidingWindow, Decision, list, dict, set, deque,
}
_STATE_KINDS = {
    "incremental": _SESSION_KINDS | {IncrementalEncoderState, np.ndarray},
    "full": _SESSION_KINDS,
}


def reachable_state(root, shared):
    """``id -> object`` of every mutable object reachable from ``root``.

    Walks containers (dict keys too) and the ``vars()`` of every other
    object, skipping immutable leaves and the objects in ``shared`` (model,
    spec and config, which copies share by design).  An array counts as
    the array owning its buffer, so a view into another state's buffer
    collides with it.
    """
    shared_ids = {id(obj) for obj in shared}
    found = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _SHAREABLE) or id(obj) in shared_ids:
            continue
        if isinstance(obj, tuple):
            stack.extend(obj)
            continue
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set, deque)):
            stack.extend(obj)
        elif not isinstance(obj, np.ndarray):
            stack.extend(vars(obj).values())
    return found


def assert_independent(original, duplicate, shared, mode="incremental"):
    """No mutable object is reachable from both; the walk saw every kind."""
    mine = reachable_state(original, shared)
    theirs = reachable_state(duplicate, shared)
    common = mine.keys() & theirs.keys()
    assert not common, sorted({type(mine[i]).__name__ for i in common})
    kinds = {base for obj in theirs.values() for base in type(obj).__mro__}
    assert _STATE_KINDS[mode] <= kinds, _STATE_KINDS[mode] - kinds


def saturated_cluster(mode: str = "incremental", executor: str = "serial"):
    """One shard, 2 streams far past their 7-item windows; returns the
    cluster and unserved tail events."""
    model = make_model()
    _, events = multi_stream_events(seed=21, num_events=160, num_streams=2, num_keys=8)
    cluster = ServingCluster(
        model,
        SPEC,
        ClusterConfig(
            num_shards=1,
            batch_size=4,
            executor=executor,
            engine=engine_config(mode=mode),
        ),
    )
    for event in events[:120]:
        cluster.submit(event)
    return cluster, events[120:]


class TestCheckpointCopies:
    """Sessions and their parts deep-copy container by container
    (``__deepcopy__``); every checkpoint, restore, snapshot, migration and
    replica seed goes through it, so a copy must share nothing mutable."""

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_session_copy_shares_no_mutable_state(self, mode):
        cluster, tail = saturated_cluster(mode=mode)
        shard = cluster.shards[0]
        stream_id, session = sorted(shard.sessions.items())[0]
        shared = (session.model, session.spec, session.config)
        assert session.decisions and session._truncated_keys
        copied = copy.deepcopy(session, shard._shard_memo())
        assert copied.model is session.model and copied.config is session.config
        assert_independent(session, copied, shared, mode)
        # The copy is a faithful replica: the same tail, the same decisions.
        tail = [event for event in tail if event.source == stream_id]
        assert tail
        for event in tail:
            assert copied.offer(event) == session.offer(event)
        assert copied.flush() == session.flush()
        cluster.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_checkpoint_unchanged_while_original_serves(self, executor):
        cluster, tail = saturated_cluster(executor=executor)
        shard = cluster.shards[0]
        shard.supervisor.checkpoint_now()
        checkpoint = shard.supervisor._checkpoint
        assert_independent(
            shard.sessions, checkpoint["sessions"], shard._shared_refs()
        )
        before = pickle.dumps(checkpoint)
        live_before = pickle.dumps(shard.sessions)
        for event in tail:
            cluster.submit(event)
        cluster.flush()
        assert pickle.dumps(shard.sessions) != live_before
        assert shard.supervisor._checkpoint is checkpoint
        assert pickle.dumps(checkpoint) == before
        cluster.close()

    def test_frozen_records_are_shared(self):
        _, events = multi_stream_events(seed=22, num_events=1)
        event = events[0]
        assert copy.deepcopy(event.item) is event.item
        assert copy.deepcopy(event) is event

    def test_plain_deepcopy_copies_the_model_once(self):
        cluster, _ = saturated_cluster()
        session = next(iter(cluster.shards[0].sessions.values()))
        copied = copy.deepcopy(session)
        assert copied.model is not session.model
        assert copied._incremental.model is copied.model
        cluster.close()

    def test_detached_copy_still_severs_the_model(self):
        cluster, _ = saturated_cluster()
        shard = cluster.shards[0]
        detached = _detached_sessions_copy(shard.sessions, shard._shared_refs())
        for session in detached.values():
            assert session.model is None and session._incremental.model is None
            assert session.spec is None and session.config is None
        stream_id = sorted(shard.sessions)[0]
        assert cluster.extract_stream(stream_id).session.model is None
        cluster.close()


# --------------------------------------------------------------------- #
# graceful degradation
# --------------------------------------------------------------------- #
def _breaker_open_cluster(clock=None, executor: str = "serial", max_queue: int = 1024):
    """A 1-shard cluster whose breaker has been opened by injected faults.

    Four arrivals stay queued (the failed rounds failed before dequeuing)."""
    model = make_model()
    # limit=2 exactly trips the threshold-2 breaker, then exhausts, so a
    # later half-open probe is able to succeed.
    injector = FaultInjector(specs=[FaultSpec(site="shard-round", shard_id=0, limit=2)])
    supervision = SupervisorConfig(
        failure_threshold=2,
        backoff_base_s=10.0,
        backoff_max_s=40.0,
        checkpoint=CheckpointConfig(every_rounds=2),
        clock=clock or time.monotonic,
    )
    config = ClusterConfig(
        **backend(executor),
        num_shards=1,
        batch_size=2,
        max_queue=max_queue,
        auto_drain=False,
        supervision=supervision,
        faults=injector,
        engine=engine_config(),
    )
    cluster = ServingCluster(model, SPEC, config)
    _, events = multi_stream_events(seed=15, num_events=8)
    for event in events[:4]:
        cluster.submit(event)
    for _ in range(2):  # two failing rounds trip the threshold-2 breaker
        cluster.drain()
    assert cluster.health()["breaker_open"] == [0]
    return cluster, injector, events[4:]


def _one_shard_open_cluster(executor: str):
    """A 2-shard cluster whose shard 0 breaker is open while shard 1 serves.

    Shard 0 (stream-4, stream-5) keeps its queued arrivals; shard 1's were
    drained.  Returns the cluster and a further batch of arrivals."""
    injector = FaultInjector(specs=[FaultSpec(site="shard-round", shard_id=0, limit=2)])
    config = ClusterConfig(
        **backend(executor),
        num_shards=2,
        batch_size=2,
        auto_drain=False,
        supervision=SupervisorConfig(
            failure_threshold=2, backoff_base_s=10.0, backoff_max_s=40.0
        ),
        faults=injector,
        engine=engine_config(),
    )
    cluster = ServingCluster(make_model(), SPEC, config)
    _, events = multi_stream_events(seed=22, num_events=60)
    for event in events[:20]:
        cluster.submit(event)
    cluster.drain()  # shard 0's two failing rounds open its breaker
    assert cluster.health()["breaker_open"] == [0]
    assert cluster.shards[0].queue_depth > 0 and cluster.shards[1].queue_depth == 0
    return cluster, events[20:]


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestGracefulDegradation:
    def test_breaker_open_submit_returns_degraded_status(self, executor):
        cluster, _, events = _breaker_open_cluster(executor=executor)
        result = cluster.submit(events[0])
        assert result.status == "degraded"
        assert not result.admitted
        assert result.decisions == ()
        assert cluster.health()["degraded_submits"] == 1
        cluster.close()

    def test_probe_after_backoff_closes_breaker_and_serves_backlog(self, executor):
        clock = FakeClock()
        cluster, injector, events = _breaker_open_cluster(clock=clock, executor=executor)
        backlog = sum(shard.queue_depth for shard in cluster.shards)
        assert backlog > 0
        # The injected fault is exhausted (limit=2); let the backoff elapse
        # on the injected clock so the next round is a half-open probe.
        clock.advance(1000.0)
        cluster.drain()  # half-open probe round succeeds and closes
        flushed = cluster.flush()
        health = cluster.health()
        assert health["breaker_open"] == []
        assert health["shards"][0]["breaker"] == "closed"
        assert sum(shard.queue_depth for shard in cluster.shards) == 0
        # The backlog survived the open window and was served after recovery.
        assert flushed
        cluster.close()

    def test_open_breaker_skips_fan_out_rounds(self, executor):
        cluster, _, _ = _breaker_open_cluster(executor=executor)
        failures_before = cluster.health()["failures"]
        assert cluster.drain() == []  # skipped, not attempted-and-failed
        assert cluster.health()["failures"] == failures_before
        cluster.close()

    def test_full_queue_on_an_open_breaker_degrades_without_a_round(self, executor):
        """Degradation is decided before capacity: on a full queue behind an
        open breaker neither entry point serves a round to make room; both
        answer ``degraded`` at once."""
        cluster, _, events = _breaker_open_cluster(executor=executor, max_queue=4)
        assert cluster.stats()["queue_depths"] == [4]
        failures = cluster.health()["failures"]
        assert cluster.submit(events[0]).status == "degraded"

        async def through_the_gateway():
            gateway = AsyncServingGateway(cluster=cluster)
            try:
                return await gateway.submit(events[1])
            finally:
                await gateway.close()

        assert asyncio.run(through_the_gateway()).status == "degraded"
        health = cluster.health()
        assert health["failures"] == failures
        assert health["degraded_submits"] == 2
        assert cluster.stats()["queue_depths"] == [4]
        assert cluster.stats()["rounds"] == 0
        cluster.close()

    def test_consume_tallies_degraded_and_serves_the_other_shard(self, executor):
        """A bulk ingest keeps going past degraded arrivals: the summary
        counts them, and the healthy shard's arrivals are admitted and
        served."""
        cluster, events = _one_shard_open_cluster(executor)
        to_open_shard = sum(1 for event in events if cluster.shard_index(event.source) == 0)
        assert 0 < to_open_shard < len(events)
        summary = cluster.consume(events)
        assert summary.submitted == len(events)
        assert summary.degraded == to_open_shard
        assert summary.admitted == len(events) - to_open_shard
        assert cluster.health()["degraded_submits"] == to_open_shard
        flushed = cluster.flush()
        assert flushed and {d.shard_id for d in flushed} == {1}
        assert cluster.shards[1].queue_depth == 0
        cluster.close()

    def test_serve_queued_skips_an_open_breaker(self, executor):
        """The continuous-batching step runs rounds on the serving shard
        only; the open shard's backlog waits and no failure is added."""
        cluster, events = _one_shard_open_cluster(executor)
        backlog = cluster.shards[0].queue_depth
        failures = cluster.health()["failures"]
        for event in events:
            if cluster.shard_index(event.source) == 1:
                cluster.submit(event)
        assert cluster.shards[1].queue_depth > 0
        while cluster.serve_queued():
            assert cluster.shards[0].queue_depth == backlog
        assert cluster.shards[1].queue_depth == 0
        assert cluster.serve_queued() is False  # only the open shard holds arrivals
        assert cluster.shards[0].queue_depth == backlog
        assert cluster.health()["failures"] == failures
        cluster.close()

    def test_flush_stream_on_an_open_breaker_runs_nothing(self, executor):
        cluster, _ = _one_shard_open_cluster(executor)
        sink = cluster.subscribe(BufferedSink())
        backlog = cluster.shards[0].queue_depth
        failures = cluster.health()["failures"]
        assert cluster.shard_index("stream-4") == 0
        assert cluster.flush_stream("stream-4") == []
        assert cluster.shards[0].queue_depth == backlog
        assert cluster.health()["failures"] == failures
        assert sink.take() == []
        # The serving shard still flushes its streams.
        flushed = cluster.flush_stream("stream-0")
        assert flushed and {d.stream_id for d in flushed} == {"stream-0"}
        assert sink.take() == flushed
        cluster.close()

    def test_flush_stream_job_failure_is_absorbed(self, executor):
        """``flush_stream`` is one shard job, as each shard's part of a
        fan-out is: an ``executor-job`` fault fails it before its drain, the
        shard's supervisor counts the failure and restores with nothing
        lost, and the next call emits what a fault-free call does."""
        _, events = multi_stream_events(seed=27, num_events=40)
        stream_id = events[-1].source

        def build(specs):
            config = ClusterConfig(
                **backend(executor),
                num_shards=1,
                batch_size=4,
                auto_drain=False,
                faults=FaultInjector(specs=specs),
                engine=engine_config(),
            )
            cluster = ServingCluster(make_model(), SPEC, config)
            for event in events:
                cluster.submit(event)
            return cluster

        cluster = build([FaultSpec(site="executor-job", shard_id=0, limit=1)])
        sink = cluster.subscribe(BufferedSink())
        assert cluster.flush_stream(stream_id) == []
        health = cluster.health()
        assert health["failures"] == 1 and health["restores"] == 1
        assert health["lost_arrivals"] == 0
        assert cluster.shards[0].queue_depth == len(events)
        assert sink.take() == []
        got = cluster.flush_stream(stream_id)
        assert sink.take() == got
        cluster.close()

        reference = build([])
        expected = reference.flush_stream(stream_id)
        reference.close()
        assert any(d.stream_id == stream_id for d in expected)
        assert [(d.stream_id, d.decision) for d in got] == [
            (d.stream_id, d.decision) for d in expected
        ]


# --------------------------------------------------------------------- #
# a drain the open breaker stopped decides no queued key
# --------------------------------------------------------------------- #
def _breaker_stops_drain_cluster(executor: str, clock, faults: bool = True):
    """1 shard, width 4, 40 queued arrivals over six streams.

    With ``faults``, the third and fourth rounds fail before dequeuing, so
    the threshold-2 breaker opens partway through the first drain with 32
    arrivals still queued; nothing is lost (the failures precede the
    dequeue), so after the backoff the workload must end exactly as a
    fault-free run of it.  Returns the cluster and its events."""
    injector = FaultInjector(
        specs=[FaultSpec(site="shard-round", shard_id=0, after=2, limit=2)] if faults else []
    )
    config = ClusterConfig(
        **backend(executor),
        num_shards=1,
        batch_size=4,
        auto_drain=False,
        supervision=SupervisorConfig(
            checkpoint=CheckpointConfig(every_rounds=1), failure_threshold=2, clock=clock
        ),
        faults=injector,
        engine=engine_config(),
    )
    cluster = ServingCluster(make_model(), SPEC, config)
    _, events = multi_stream_events(seed=25, num_events=40)
    for event in events:
        cluster.submit(event)
    return cluster, events


#: ``operation name -> call(cluster, stream_id)``: the two operations that
#: drain before they force decisions.
_DRAIN_FIRST_OPERATIONS = {
    "flush": lambda cluster, stream_id: cluster.flush(),
    "flush_stream": lambda cluster, stream_id: cluster.flush_stream(stream_id),
}


class TestBreakerStoppedDrain:
    @pytest.mark.parametrize("operation", list(_DRAIN_FIRST_OPERATIONS))
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_stopped_drain_decides_no_queued_key(self, executor, operation):
        """``flush`` and ``flush_stream`` drain first; when the
        breaker opens partway, the arrivals it left queued belong to keys a
        forced decision now would decide on a prefix of their stream.  The
        operation returns only what the drain emitted, and the same call
        after the half-open probe decides those keys as a fault-free run
        does."""
        call = _DRAIN_FIRST_OPERATIONS[operation]
        clock = FakeClock()
        twin, events = _breaker_stops_drain_cluster(executor, clock)
        drained = twin.drain()
        twin.close()
        stream_id = events[-1].source

        cluster, _ = _breaker_stops_drain_cluster(executor, clock)
        got = call(cluster, stream_id)
        assert cluster.shards[0].queue_depth == 32
        assert cluster.health()["breaker_open"] == [0]
        assert got == drained
        clock.advance(1000.0)  # backoff over: the next round is the probe
        got.extend(call(cluster, stream_id))
        assert cluster.shards[0].queue_depth == 0
        got.extend(cluster.flush())
        cluster.close()

        reference_cluster, _ = _breaker_stops_drain_cluster(executor, clock, faults=False)
        reference = call(reference_cluster, stream_id) + reference_cluster.flush()
        reference_cluster.close()
        assert_recovery_parity(got, reference)


# --------------------------------------------------------------------- #
# a graceful stop with an open breaker
# --------------------------------------------------------------------- #
def _open_breaker_backlog_config(executor: str, clock, raises: Optional[int]):
    """1 shard, width 4, a threshold-2 breaker with a 10 s backoff on
    ``clock``; ``shard-round`` raises ``raises`` times (``None``: always,
    0: never)."""
    specs = [] if raises == 0 else [FaultSpec(site="shard-round", shard_id=0, limit=raises)]
    return ClusterConfig(
        **backend(executor),
        num_shards=1,
        batch_size=4,
        auto_drain=False,
        supervision=SupervisorConfig(
            failure_threshold=2, backoff_base_s=10.0, backoff_max_s=10.0, clock=clock
        ),
        faults=FaultInjector(specs=specs),
        engine=engine_config(),
    )


#: The twelve arrivals queued behind the open breaker.
_BACKLOG = multi_stream_events(seed=26, num_events=12)[1]


def _per_stream(decisions):
    streams = {}
    for stream_decision in decisions:
        streams.setdefault(stream_decision.stream_id, []).append(stream_decision.decision)
    return streams


def _fault_free_shutdown(executor: str):
    reference = ServingCluster(
        make_model(), SPEC, _open_breaker_backlog_config(executor, FakeClock(), raises=0)
    )
    for event in _BACKLOG:
        reference.submit(event)
    return reference.shutdown()


@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestGracefulStopWithOpenBreaker:
    """``shutdown()`` (and an owning gateway's ``close()``) with twelve
    arrivals queued behind a breaker two failed rounds opened.  No later
    call will come, so the open shard probes now instead of after its
    backoff; whatever the stop cannot serve is counted lost."""

    @staticmethod
    def open_breaker(cluster) -> None:
        assert cluster.drain() == []  # two failing rounds open the breaker
        assert cluster.health()["breaker_open"] == [0]
        assert cluster.shards[0].queue_depth == len(_BACKLOG)

    def test_shutdown_serves_the_backlog_once_the_fault_stops(self, executor):
        cluster = ServingCluster(
            make_model(), SPEC, _open_breaker_backlog_config(executor, FakeClock(), raises=2)
        )
        for event in _BACKLOG:
            cluster.submit(event)
        self.open_breaker(cluster)
        got = cluster.shutdown()
        assert cluster.state == "closed"
        assert cluster.shards[0].queue_depth == 0
        assert cluster.shards[0].drained == len(_BACKLOG)
        assert cluster.health()["lost_arrivals"] == 0
        assert _per_stream(got) == _per_stream(_fault_free_shutdown(executor))

    def test_shutdown_counts_what_a_failing_probe_leaves(self, executor):
        cluster = ServingCluster(
            make_model(), SPEC, _open_breaker_backlog_config(executor, FakeClock(), raises=None)
        )
        for event in _BACKLOG:
            cluster.submit(event)
        self.open_breaker(cluster)
        assert cluster.shutdown() == []
        shard = cluster.shards[0]
        assert shard.queue_depth == 0
        assert shard.supervisor.failures == 3  # the probe ran, once
        assert shard.drained + cluster.health()["lost_arrivals"] == len(_BACKLOG)
        assert sorted(event.time for _, event in shard.supervisor.lost_entries) == [
            event.time for event in _BACKLOG
        ]

    @pytest.mark.parametrize("raises", [2, None])
    def test_owning_gateway_close_goes_through_shutdown(self, executor, raises):
        async def scenario():
            gateway = AsyncServingGateway(
                make_model(), SPEC, _open_breaker_backlog_config(executor, FakeClock(), raises)
            )
            for event in _BACKLOG:
                assert (await gateway.submit(event)).status == "accepted"
            assert (await gateway.drain()) == []
            assert gateway.cluster.health()["breaker_open"] == [0]
            return gateway, await gateway.close()

        gateway, got = asyncio.run(scenario())
        cluster = gateway.cluster
        assert cluster.state == "closed" and cluster.shards[0].queue_depth == 0
        if raises is None:
            assert got == []
            assert cluster.health()["lost_arrivals"] == len(_BACKLOG)
        else:
            assert cluster.health()["lost_arrivals"] == 0
            assert _per_stream(got) == _per_stream(_fault_free_shutdown(executor))


# --------------------------------------------------------------------- #
# slow rounds, and a round a restore outruns
# --------------------------------------------------------------------- #
class TestSlowRounds:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_slow_round_is_waited_for(self, executor):
        """A drain round held 0.3 s at the mid-encode boundary is waited
        for on both backends: ``drain()`` returns every decision, nothing
        is lost or recovered, and the decisions equal a fault-free
        reference's, stream by stream and in order."""
        model = make_model()
        _, events = multi_stream_events(seed=16, num_events=20)

        def drained(injector):
            config = ClusterConfig(
                **backend(executor),
                num_shards=2,
                batch_size=4,
                auto_drain=False,
                supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=2)),
                faults=injector,
                engine=engine_config(),
            )
            cluster = ServingCluster(model, SPEC, config)
            for event in events:
                cluster.submit(event)
            start = time.perf_counter()
            emitted = cluster.drain()
            elapsed = time.perf_counter() - start
            assert sum(shard.queue_depth for shard in cluster.shards) == 0
            health = cluster.health()
            cluster.close()
            return emitted, elapsed, health

        injector = FaultInjector(
            specs=[FaultSpec(site="session-encode", action="delay", delay_s=0.3, shard_id=0, limit=1)]
        )
        got, elapsed, health = drained(injector)
        assert injector.fired("session-encode") == 1
        assert elapsed >= 0.3  # waited out, not abandoned
        assert health["failures"] == 0
        assert health["restores"] == 0
        assert health["lost_arrivals"] == 0
        assert health["shards"][0]["stale_reports"] == 0
        reference, _, _ = drained(None)
        assert got
        assert got == reference

    @pytest.mark.parametrize("site", ["shard-round", "session-encode"])
    def test_round_outrun_by_a_restore_counts_nothing(self, site):
        """Thread backend: ``restore`` lands while the drain's first round
        is held before its dequeue (``shard-round``) or mid-encode
        (``session-encode``).  That round's report is stale (dropped,
        counted) and the epoch gate at that boundary stops it: it consumes
        nothing from the restored queue, or its bookkeeping tail —
        counters and monitor included — is skipped.  The drain then serves
        the restored queue: its decisions, ``drained``, the monitor and the
        batch counters all equal a reference restored from the same
        snapshot and drained."""
        model = make_model()
        _, events = multi_stream_events(seed=21, num_events=24)

        def cluster_with(injector):
            config = ClusterConfig(
                executor="thread",
                num_shards=1,
                batch_size=2,
                auto_drain=False,
                supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=1)),
                faults=injector,
                engine=engine_config(),
            )
            return ServingCluster(model, SPEC, config)

        injector = FaultInjector(
            specs=[FaultSpec(site=site, action="delay", delay_s=0.6, limit=1)]
        )
        cluster = cluster_with(injector)
        for event in events:
            cluster.submit(event)
        snapshot = cluster.snapshot()
        outcome = []
        drainer = threading.Thread(target=lambda: outcome.append(cluster.drain()))
        drainer.start()
        deadline = time.monotonic() + 10.0
        while not injector.fired(site):
            assert time.monotonic() < deadline, "the first round never started"
            time.sleep(0.005)
        cluster.restore(snapshot)  # the first round is still asleep
        drainer.join(timeout=30.0)
        assert not drainer.is_alive()
        shard = cluster.shards[0]
        assert shard.supervisor.stale_reports == 1

        reference_cluster = cluster_with(None)
        reference_cluster.restore(snapshot)
        reference = reference_cluster.drain()
        ref_shard = reference_cluster.shards[0]
        assert outcome[0] == reference
        assert shard.drained == ref_shard.drained == len(events)
        assert shard.monitor.rounds == ref_shard.monitor.rounds
        assert shard.monitor.rows == ref_shard.monitor.rows
        assert shard.batch_rounds == ref_shard.batch_rounds
        assert shard.batched_rows == ref_shard.batched_rows
        cluster.close()
        reference_cluster.close()
        assert cluster._executor.leaked_workers == 0


# --------------------------------------------------------------------- #
# sink fault isolation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestSinkFaultIsolation:
    def test_permanently_failing_sink_never_affects_decisions(self, executor):
        model = make_model()
        _, events = multi_stream_events(seed=18)
        baseline_cluster, baseline = run_cluster(
            model, events, ClusterConfig(num_shards=2, batch_size=4, engine=engine_config())
        )
        baseline_cluster.close()

        injector = FaultInjector(specs=[FaultSpec(site="sink-publish")])
        config = ClusterConfig(
            **backend(executor), num_shards=2, batch_size=4, engine=engine_config()
        )
        cluster = ServingCluster(model, SPEC, config)
        broken = cluster.subscribe(FaultInjectingSink(injector))
        healthy = cluster.subscribe(BufferedSink())
        got = []
        for event in events:
            got.extend(cluster.submit(event).decisions)
        got.extend(cluster.flush())
        health = cluster.health()
        cluster.close()

        # Returned decisions are identical to the sink-free run...
        assert [
            (d.stream_id, d.decision.key, d.decision.confidence) for d in got
        ] == [
            (d.stream_id, d.decision.key, d.decision.confidence) for d in baseline
        ]
        # ...the healthy sibling received every decision...
        assert len(healthy.take()) == len(got)
        # ...and the broken sink was quarantined after K consecutive errors.
        assert health["quarantined_sinks"] == 1
        assert health["sink_publish_errors"] == cluster.config.supervision.sink_quarantine_after
        assert injector.fired("sink-publish") > 0

    def test_quarantine_surfaced_in_stats(self, executor):
        model = make_model()
        _, events = multi_stream_events(seed=19, num_events=40)
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(
                **backend(executor), num_shards=1, batch_size=4, engine=engine_config()
            ),
        )
        injector = FaultInjector(specs=[FaultSpec(site="sink-publish")])
        cluster.subscribe(FaultInjectingSink(injector))
        for event in events:
            cluster.submit(event)
        cluster.flush()
        stats = cluster.stats()
        assert stats["health"]["quarantined_sinks"] == 1
        assert stats["health"]["sink_publish_errors"] >= 1
        cluster.close()


# --------------------------------------------------------------------- #
# degraded-submit idempotence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "thread"])
class TestDegradedSubmitIdempotence:
    """A submit that is not admitted changes nothing: to a breaker-open
    shard, through either entry point, the sessions and the queue stay
    bit-for-bit as they were and only ``degraded_submits`` moves."""

    @staticmethod
    def _state_bytes(cluster):
        """Serialized sessions + queue of every shard (not counters)."""
        snapshot = cluster.snapshot()
        return pickle.dumps(
            [
                {"sessions": state["sessions"], "queue": state["queue"]}
                for state in snapshot.shard_states
            ]
        )

    def test_cluster_submit_leaves_state_bit_for_bit_untouched(self, executor):
        clock = FakeClock()
        cluster, _, events = _breaker_open_cluster(clock=clock, executor=executor)
        before = self._state_bytes(cluster)
        for count, event in enumerate(events[:2], start=1):
            result = cluster.submit(event)
            assert result.status == "degraded" and result.decisions == ()
            assert cluster.health()["degraded_submits"] == count
            assert self._state_bytes(cluster) == before
        # The admitted backlog is fully servable once the backoff elapses.
        clock.advance(1000.0)
        assert cluster.flush()
        cluster.close()

    def test_gateway_submit_leaves_state_bit_for_bit_untouched(self, executor):
        cluster, _, events = _breaker_open_cluster(executor=executor)
        before = self._state_bytes(cluster)

        async def scenario():
            gateway = AsyncServingGateway(cluster=cluster)
            try:
                for count, event in enumerate(events[:2], start=1):
                    result = await gateway.submit(event)
                    assert result.status == "degraded" and result.decisions == ()
                    assert gateway.health()["degraded_submits"] == count
                    assert self._state_bytes(cluster) == before
            finally:
                await gateway.close()

        asyncio.run(scenario())
        cluster.close()


# --------------------------------------------------------------------- #
# out-of-order arrivals: refused at admission
# --------------------------------------------------------------------- #
def timed_event(stream_id, time, key="k0"):
    item = Item(key, (int(time) % 8, int(time) % 2), float(time))
    return StreamEvent(time=float(time), item=item, source=stream_id)


class TestOutOfOrderAdmission:
    """An arrival older than its stream's newest admitted item raises
    :class:`OutOfOrderEventError` at submit, before it is enqueued or
    journaled.  Admitted, it would fail the drain round serving it, and the
    recovery would lose the other streams' arrivals of that round too."""

    #: Five in-order arrivals on each of two streams.
    PREFIX = [
        timed_event(stream_id, time, key=f"k{time % 3}")
        for time in range(5)
        for stream_id in ("s1", "s2")
    ]

    @staticmethod
    def config(executor="serial", **overrides):
        return ClusterConfig(
            num_shards=1,
            batch_size=4,
            executor=executor,
            engine=engine_config(window_items=8),
            **overrides,
        )

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_older_arrival_refused_without_losing_other_streams(self, executor):
        """Before the fix all three submits were accepted and the next drain
        reported 2 failures, 2 restores and 5 lost arrivals."""
        model = make_model()
        tail = [timed_event("s1", 10), timed_event("s3", 10)]
        cluster = ServingCluster(model, SPEC, self.config(executor))
        emitted = []
        for event in self.PREFIX + tail[:1]:
            emitted.extend(cluster.submit(event).decisions)
        depth = cluster.shards[0].queue_depth
        with pytest.raises(OutOfOrderEventError, match="'s2'"):
            cluster.submit(timed_event("s2", 2))
        assert cluster.shards[0].queue_depth == depth
        emitted.extend(cluster.submit(tail[1]).decisions)
        emitted.extend(cluster.drain())
        emitted.extend(cluster.flush())
        health = cluster.health()
        cluster.close()
        assert health["failures"] == 0
        assert health["restores"] == 0
        assert health["lost_arrivals"] == 0
        clean, reference = run_cluster(model, self.PREFIX + tail, self.config(executor))
        clean.close()
        assert emitted == reference

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_equal_time_and_other_streams_stay_legal(self, executor):
        cluster = ServingCluster(make_model(), SPEC, self.config(executor, auto_drain=False))
        for event in self.PREFIX:
            cluster.submit(event)
        # s1's newest item is queued, not yet served: it still counts.
        assert cluster.submit(timed_event("s1", 4, key="k2")).admitted
        with pytest.raises(OutOfOrderEventError):
            cluster.submit(timed_event("s1", 3))
        assert cluster.submit(timed_event("s3", 0)).admitted
        cluster.flush()
        with pytest.raises(OutOfOrderEventError):
            cluster.submit(timed_event("s2", 3))
        assert cluster.health()["failures"] == 0
        cluster.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_snapshot_restore_rewinds_admission(self, executor):
        """Restoring a snapshot rewinds each stream's newest time to the
        snapshot's, so replaying the arrivals after it is accepted (and
        re-emits the same decisions), while older ones are still refused."""
        cluster = ServingCluster(make_model(), SPEC, self.config(executor))
        cluster.consume(self.PREFIX)
        cluster.drain()  # empty queue: the sessions alone hold the clocks
        snapshot = cluster.snapshot()
        later = [timed_event(stream_id, time) for time in range(5, 9) for stream_id in ("s1", "s2")]
        first = list(cluster.consume(later)) + cluster.flush()
        with pytest.raises(OutOfOrderEventError):
            cluster.submit(timed_event("s1", 5))
        cluster.restore(snapshot)
        with pytest.raises(OutOfOrderEventError):
            cluster.submit(timed_event("s1", 3))
        replay = []
        for event in later:
            result = cluster.submit(event)
            assert result.admitted
            replay.extend(result.decisions)
        replay.extend(cluster.flush())
        assert replay == first
        cluster.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_recovery_rewinds_admission_past_lost_arrivals(self, executor):
        """A crash recovery rebuilds the newest times from the restored
        sessions and the requeued arrivals.  An arrival the dead round lost
        no longer counts; the restored session's newest item still does."""
        injector = FaultInjector(specs=[FaultSpec(site="session-encode", after=1, limit=1)])
        config = self.config(
            executor,
            auto_drain=False,
            supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=1)),
            faults=injector,
        )
        cluster = ServingCluster(make_model(), SPEC, config)
        cluster.submit(timed_event("s1", 1))
        cluster.drain()
        cluster.submit(timed_event("s1", 3))
        cluster.drain()  # the round serving s1@3 dies; s1@3 is lost
        health = cluster.health()
        assert (health["restores"], health["lost_arrivals"]) == (1, 1)
        with pytest.raises(OutOfOrderEventError):
            cluster.submit(timed_event("s1", 0))
        assert cluster.submit(timed_event("s1", 2)).admitted
        cluster.flush()
        assert cluster.health()["failures"] == 1
        cluster.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_migration_carries_admission_with_the_stream(self, executor):
        source = ServingCluster(make_model(), SPEC, self.config(executor, auto_drain=False))
        target = ServingCluster(source.model, SPEC, self.config(executor, auto_drain=False))
        source.consume(self.PREFIX)
        source.drain()  # nothing queued: the session alone carries the clock
        state = source.extract_stream("s1")
        assert not state.pending
        # The source forgot the stream: its id starts a new session there.
        assert source.submit(timed_event("s1", 0)).admitted
        target.install_stream(state)
        with pytest.raises(OutOfOrderEventError):
            target.submit(timed_event("s1", 3))
        assert target.submit(timed_event("s1", 4)).admitted
        source.close()
        target.close()


# --------------------------------------------------------------------- #
# lifecycle edges
# --------------------------------------------------------------------- #
class TestLifecycleEdges:
    def test_cluster_double_close_and_shutdown_are_idempotent(self):
        model = make_model()
        cluster = ServingCluster(
            model, SPEC, ClusterConfig(num_shards=2, executor="thread", engine=engine_config())
        )
        _, events = multi_stream_events(seed=21, num_events=10)
        for event in events:
            cluster.submit(event)
        assert cluster.shutdown() is not None
        assert cluster.state == "closed"
        assert cluster.shutdown() == []  # idempotent
        cluster.close()  # also idempotent after shutdown
        cluster.close()
        assert cluster.state == "closed"

    def test_submit_after_close_error_names_the_state(self):
        model = make_model()
        cluster = ServingCluster(model, SPEC, ClusterConfig(num_shards=1, engine=engine_config()))
        cluster.close()
        _, events = multi_stream_events(seed=22, num_events=1)
        with pytest.raises(RuntimeError, match="cannot submit: cluster is closed"):
            cluster.submit(events[0])
        with pytest.raises(RuntimeError, match="cannot drain: cluster is closed"):
            cluster.drain()

    def test_async_gateway_double_close_and_submit_after_close(self):
        import asyncio

        from repro.serving.aio import AsyncServingGateway

        async def scenario():
            gateway = AsyncServingGateway(
                make_model(), SPEC, ClusterConfig(num_shards=1, engine=engine_config())
            )
            _, events = multi_stream_events(seed=24, num_events=6)
            for event in events:
                await gateway.submit(event)
            await gateway.close()
            assert (await gateway.close()) == []  # idempotent
            with pytest.raises(RuntimeError, match="cannot submit: gateway is"):
                await gateway.submit(events[0])

        asyncio.run(scenario())

    def test_shutdown_racing_inflight_thread_drain_never_hangs(self):
        """A background submitter racing ``shutdown()`` must end cleanly:
        either its submits land before the final flush or they hit the
        lifecycle guard — never a hang or an unexpected error."""
        model = make_model()
        cluster = ServingCluster(
            model,
            SPEC,
            ClusterConfig(num_shards=2, executor="thread", batch_size=2, engine=engine_config()),
        )
        _, events = multi_stream_events(seed=25, num_events=60)
        started = threading.Event()
        outcomes = []

        def submitter():
            started.set()
            for event in events:
                try:
                    cluster.submit(event)
                except RuntimeError as error:
                    assert "cannot submit" in str(error)
                    outcomes.append("guarded")
                    return
            outcomes.append("finished")

        thread = threading.Thread(target=submitter)
        thread.start()
        started.wait()
        cluster.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcomes in (["guarded"], ["finished"])
        assert cluster.state == "closed"

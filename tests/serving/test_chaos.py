"""Randomized chaos fuzz of the fault-tolerance layer (``stress`` marker).

Seeded end-to-end fuzzing on top of the deterministic suite in
``test_supervisor.py``: each case draws a random workload plus a random
mix of injected faults (raise / kill at random serving boundaries, random
cadence), forces mid-run shard kills on every shard, runs under both
executors, and asserts the chaos gate:

* recovery parity — first emissions for every arrival that was actually
  admitted and not lost to a crashed round match a reference cluster that
  never saw the lost/unadmitted arrivals, bit-for-bit;
* liveness — no drain/flush call blocks past a generous wall-clock bound,
  and the backlog fully drains with no breaker left open once the faults
  are exhausted;
* sink isolation — a permanently failing sink subscribed during the chaos
  never changes the returned decisions.

Deselected by default (``pytest.ini`` addopts); run with ``-m stress`` —
the per-push parity stress step and the weekly CI stress job do.
"""

import time

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving.cluster import ClusterConfig, ServingCluster
from repro.serving.engine import EngineConfig
from repro.serving.faults import FAULT_SITES, FaultInjectingSink, FaultInjector, FaultSpec
from repro.serving.supervisor import CheckpointConfig, SupervisorConfig
from tests.serving.backends import backend

pytestmark = pytest.mark.stress

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

TOLERANCE = 1e-9

#: One liveness bound for every cluster call in the fuzz — generous, but a
#: failing shard that looped instead of opening its breaker would exceed it.
CALL_BUDGET_S = 30.0


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


def multi_stream_events(seed: int, num_events: int, num_streams: int = 6, num_keys: int = 5):
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
    return events


def random_fault_specs(rng, num_shards: int):
    """A random, always-exhaustible fault mix (every spec carries a limit)."""
    specs = []
    for _ in range(int(rng.integers(2, 6))):
        site = FAULT_SITES[int(rng.integers(len(FAULT_SITES) - 1))]  # not sink-publish
        action = ("raise", "kill")[int(rng.integers(2))]
        specs.append(
            FaultSpec(
                site=site,
                action=action,
                shard_id=int(rng.integers(num_shards)),
                after=int(rng.integers(0, 20)),
                limit=int(rng.integers(1, 3)),
                probability=float(rng.uniform(0.5, 1.0)),
            )
        )
    return specs


def first_emissions(decisions):
    firsts = {}
    for stream_decision in decisions:
        key = (stream_decision.stream_id, stream_decision.decision.key)
        if key not in firsts:
            firsts[key] = stream_decision.decision
    return firsts


def assert_chaos_parity(got, reference, casualties):
    """The multi-crash recovery gate.

    With several overlapping recoveries an arrival can be served (decision
    emitted), rewound past by one recovery and then *lost* by a later crash —
    its pre-crash emission is an orphan no reference run reproduces, so exact
    first-emission parity (the single-crash gate in ``test_supervisor.py``)
    does not apply.  What recovery does guarantee: the journal replay
    re-serves every surviving arrival against the rewound state, so the
    reference's first emission for every key appears bit-for-bit among the
    chaos run's emissions, and any key the chaos run decided that the
    reference never saw must trace to a lost/unadmitted arrival.
    """
    ref_firsts = first_emissions(reference)
    got_by_key = {}
    for stream_decision in got:
        key = (stream_decision.stream_id, stream_decision.decision.key)
        got_by_key.setdefault(key, []).append(stream_decision.decision)
    casualty_keys = {(stream_id, event.item.key) for stream_id, event in casualties}
    for key in got_by_key:
        assert key in ref_firsts or key in casualty_keys, key
    for key, ref in ref_firsts.items():
        candidates = got_by_key.get(key)
        assert candidates, key
        assert any(
            candidate.predicted == ref.predicted
            and abs(candidate.confidence - ref.confidence) <= TOLERANCE
            and candidate.observations == ref.observations
            and candidate.decision_time == ref.decision_time
            for candidate in candidates
        ), key


def timed(fn):
    """Run a cluster call under the liveness budget; return its decisions."""
    start = time.perf_counter()
    result = fn()
    assert time.perf_counter() - start < CALL_BUDGET_S
    return result


def settle(cluster) -> list:
    """Flush until every queue is empty and no breaker is open (faults
    exhausted, probes allowed).

    A flush skips a shard whose breaker is open, so an empty queue alone
    does not mean that shard's undecided keys were flushed: the loop goes
    on until a flush has run on every shard.
    """
    emitted = []
    deadline = time.monotonic() + CALL_BUDGET_S
    while True:
        emitted.extend(timed(cluster.flush))
        queued = sum(shard.queue_depth for shard in cluster.shards)
        shards = cluster.health()["shards"]
        if queued == 0 and all(health["breaker"] != "open" for health in shards):
            break
        assert time.monotonic() < deadline, "backlog never drained"
        time.sleep(0.01)  # let breaker backoffs elapse before the next probe
    return emitted


def run_chaos(seed: int, executor: str):
    """One fuzz case.  Returns (survivor events, chaos decisions, health)."""
    rng = np.random.default_rng(seed)
    num_shards = int(rng.integers(2, 4))
    events = multi_stream_events(seed, num_events=int(rng.integers(150, 300)))
    # The random mix plus one permanently failing sink (quarantine fodder).
    specs = random_fault_specs(rng, num_shards) + [FaultSpec(site="sink-publish")]
    injector = FaultInjector(seed=seed, specs=specs)
    config = ClusterConfig(
        num_shards=num_shards,
        batch_size=int(rng.integers(2, 6)),
        max_queue=4096,
        **backend(executor),
        supervision=SupervisorConfig(
            checkpoint=CheckpointConfig(every_rounds=int(rng.integers(1, 8))),
            failure_threshold=2,
            backoff_base_s=0.005,
            backoff_max_s=0.05,
        ),
        faults=injector,
        engine=EngineConfig(window_items=7, halt_threshold=0.5, reencode_every=2),
    )
    model = make_model()
    cluster = ServingCluster(model, SPEC, config)
    broken_sink = cluster.subscribe(FaultInjectingSink(injector))

    got = []
    unadmitted = []
    kill_at = len(events) // 2
    for index, event in enumerate(events):
        if index == kill_at:
            # Forced mid-run crash on every shard, on its next encode.
            for shard in cluster.shards:
                injector.add(
                    FaultSpec(
                        site="session-encode", action="kill", shard_id=shard.shard_id, limit=1
                    )
                )
        result = cluster.submit(event)
        if not result.admitted:
            unadmitted.append((event.source, event))
        got.extend(result.decisions)
        if rng.random() < 0.05:
            got.extend(timed(cluster.drain))
    got.extend(settle(cluster))

    lost = [
        (stream_id, event)
        for shard in cluster.shards
        for stream_id, event in shard.supervisor.lost_entries
    ]
    health = cluster.health()
    cluster.close()

    # The reference never sees arrivals the chaos run lost or never admitted.
    casualties = lost + unadmitted
    survivors = list(events)
    for stream_id, casualty in casualties:
        for index, event in enumerate(survivors):
            if event == casualty and event.source == stream_id:
                del survivors[index]
                break
    return survivors, got, health, casualties


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_randomized_chaos_recovery_parity(seed, executor):
    survivors, got, health, casualties = run_chaos(seed, executor)
    # The forced per-shard kills guarantee real crash/recovery coverage.
    assert health["restores"] >= 1
    assert health["failures"] >= 1
    # The permanently failing sink was quarantined, never propagated.
    assert health["quarantined_sinks"] >= 1

    model = make_model()
    reference_cluster = ServingCluster(
        model,
        SPEC,
        ClusterConfig(
            num_shards=2,
            batch_size=4,
            max_queue=4096,
            engine=EngineConfig(window_items=7, halt_threshold=0.5, reencode_every=2),
        ),
    )
    reference = []
    for event in survivors:
        reference.extend(reference_cluster.submit(event).decisions)
    reference.extend(reference_cluster.flush())
    reference_cluster.close()
    assert_chaos_parity(got, reference, casualties)

"""Perf smoke: the incremental serving paths must beat full re-encode.

Deselected by default (see ``pytest.ini``); run with ``pytest -m perf_smoke``.
The assertions are wall-clock based and intentionally loose (2x where the
measured margins are orders of magnitude larger) so the smoke stays robust
on loaded CI machines.  The benchmark is fully deterministic: models and
streams are derived from the explicit ``seed`` passed below.
"""

import pytest

pytestmark = pytest.mark.perf_smoke

#: Explicit RNG root for the gate; run_latency_comparison derives every
#: model init and stream from it, so reruns measure identical work.
GATE_SEED = 0


@pytest.fixture(scope="module")
def latency_result():
    bench = pytest.importorskip(
        "benchmarks.bench_ext_serving_latency",
        reason="benchmarks/ must be importable (run pytest from the repo root)",
    )
    return bench.run_latency_comparison("unit", emit_json=False, seed=GATE_SEED)


def test_incremental_at_least_2x_full_reencode_at_window_256(latency_result):
    stats = latency_result["windows"][256]
    assert stats["speedup_mean"]["fill"] >= 2.0, stats


def test_rotary_ring_at_least_2x_full_reencode_when_saturated(latency_result):
    """Saturated-regime gate for the eviction-stable ring buffer: every
    arrival evicts, yet the rotary scheme must stay well ahead of the full
    re-encode because it never rebuilds (O(W·d) vs O(W²·d) per arrival)."""
    stats = latency_result["windows"][256]
    assert stats["speedup_rotary_mean"]["saturated"] >= 2.0, stats
    # The ring's fill and saturated costs are the same order; the legacy
    # absolute scheme cannot be gated here because its saturated path
    # legitimately degrades to batched rebuilds.
    assert stats["speedup_rotary_mean"]["fill"] >= 2.0, stats


@pytest.fixture(scope="module")
def eviction_gate_result():
    """Median ``evict_oldest()`` vs median ``append()`` on a saturated ring.

    A rotary state at window 1024 is filled, then 400 evict/append pairs
    are timed alternately, so host load hits both sides of the ratio alike.
    """
    import statistics
    import time

    import numpy as np

    from repro.core.config import KVECConfig
    from repro.core.model import KVEC
    from repro.data.items import Item, ValueSpec

    window, pairs = 1024, 400
    spec = ValueSpec(("size", "direction"), (8, 2), session_field=1)
    model = KVEC(
        spec, num_classes=3, config=KVECConfig(dropout=0.0, encoding="rotary", seed=GATE_SEED)
    )
    rng = np.random.default_rng(GATE_SEED)
    items = [
        Item(f"k{rng.integers(32)}", (int(rng.integers(8)), int(rng.integers(2))), float(t))
        for t in range(window + pairs)
    ]
    state = model.make_incremental_state(capacity=window)
    for item in items[:window]:
        state.append(item)
    evict_s, append_s = [], []
    for item in items[window:]:
        start = time.perf_counter()
        state.evict_oldest()
        evict_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        state.append(item)
        append_s.append(time.perf_counter() - start)
    evict_us = statistics.median(evict_s) * 1e6
    append_us = statistics.median(append_s) * 1e6
    return {
        "window": len(state),
        "evict_us": evict_us,
        "append_us": append_us,
        "evict_vs_append": evict_us / append_us,
    }


def test_ring_eviction_at_most_0_02x_one_append(eviction_gate_result):
    """Eviction gate for the columnar ring: ``evict_oldest()`` only advances
    the ring's base, so on a saturated rotary state at window 1024 its
    median cost is at most 0.02x the median ``append()``.  Shifting every
    K/V cache left one row measured 0.13-0.14x on a 2-core x86-64 box; the
    ring measures ~0.004x.  A ratio, so host load cancels."""
    result = eviction_gate_result
    assert result["window"] == 1024, result
    assert result["evict_vs_append"] <= 0.02, result


def test_batched_shard_encoding_at_least_2x_serial(cluster_bench_result):
    """Batched-shard gate of the sharded-cluster PR: the cross-stream
    ``append_batch`` path (one GEMM per block + one batched halt-probability
    matvec, exactly a shard's drain round) must beat the serial per-arrival
    encoding by >= 2x at batch >= 8, window 256, rotary, saturated ring."""
    assert cluster_bench_result["speedup"] >= 2.0, cluster_bench_result


@pytest.fixture(scope="module")
def cluster_bench_result():
    bench = pytest.importorskip(
        "benchmarks.bench_ext_cluster_throughput",
        reason="benchmarks/ must be importable (run pytest from the repo root)",
    )
    # Batch 16 (>= the satellite's batch-8 floor) keeps a comfortable noise
    # margin over the 2x threshold on loaded CI machines; batch-8 numbers are
    # tracked in BENCH_serving.json by the full throughput sweep.
    return bench.run_batch_speedup(window=256, batch=16, rounds=48, seed=GATE_SEED)


def _available_cpus() -> int:
    from repro.serving.parallel import available_cpus

    return available_cpus()


@pytest.fixture(scope="module")
def parallel_gate_result():
    bench = pytest.importorskip(
        "benchmarks.bench_ext_cluster_throughput",
        reason="benchmarks/ must be importable (run pytest from the repo root)",
    )
    return bench.run_parallel_drain_gate(
        window=128, num_streams=64, num_shards=4, seed=GATE_SEED
    )


@pytest.mark.skipif(
    _available_cpus() < 2,
    reason="thread-executor speedup is parallelism; it needs >= 2 usable cores",
)
def test_thread_executor_drain_at_least_1_5x_serial(parallel_gate_result):
    """Parallel-execution gate: with 4 shards pinned to 4 pool workers, one
    cluster drain (window 128, 64 uniform streams, fixed batch) must run
    >= 1.5x faster than the serial backend on the identical event sequence.
    The speedup is real concurrency — numpy releases the GIL inside the
    cross-stream GEMMs, so shard rounds overlap on distinct cores — which is
    why the gate skips on single-core machines instead of asserting the
    physically impossible."""
    assert parallel_gate_result["speedup"] >= 1.5, parallel_gate_result


@pytest.fixture(scope="module")
def net_gate_result():
    bench = pytest.importorskip(
        "benchmarks.bench_ext_cluster_throughput",
        reason="benchmarks/ must be importable (run pytest from the repo root)",
    )
    return bench.run_net_throughput(seed=GATE_SEED, emit_json=False)


def test_http_loopback_at_least_half_direct_gateway_throughput(net_gate_result):
    """Network-tier gate: submitting the identical traffic through the
    loopback HTTP front end (request framing + JSON codecs + one socket
    round-trip per event) must sustain >= 0.5x the direct async-gateway
    throughput.  Both legs run the same AsyncServingGateway machinery, so
    the ratio isolates the wire tax — a regression here means the protocol
    layer started copying, blocking, or round-tripping more than it
    should."""
    assert net_gate_result["http_vs_direct"] >= 0.5, net_gate_result


@pytest.fixture(scope="module")
def checkpoint_gate_result():
    """Median checkpoint capture vs median width-16 drain round, one shard.

    32 rotary sessions (window 128) are filled past their windows with
    synthetic USTC flows, then checkpoints and single drain rounds are
    timed alternately, so host load hits both sides of the ratio alike.
    """
    import statistics
    import time

    from repro.core.config import KVECConfig
    from repro.core.model import KVEC
    from repro.data.stream import StreamEvent
    from repro.datasets.traffic import make_ustc_tfc2016
    from repro.serving import (
        CheckpointConfig,
        ClusterConfig,
        EngineConfig,
        ServingCluster,
        SupervisorConfig,
    )
    from repro.serving.simulator import ArrivalSimulator, SimulatorConfig

    streams, window, width, repeats = 32, 128, 16, 9
    dataset = make_ustc_tfc2016(num_flows=260, seed=GATE_SEED)
    flows = iter(dataset.sequences)
    per_stream = []
    for index in range(streams):
        assigned, items = [], 0
        while items < window + repeats:
            flow = next(flows)
            assigned.append(flow)
            items += len(flow)
        simulator = ArrivalSimulator(
            assigned,
            SimulatorConfig(arrival_rate=2.0, gap_scale=0.25, seed=GATE_SEED + index),
        )
        per_stream.append(
            [StreamEvent(e.time, e.item, f"stream-{index}") for e in simulator.events()]
        )
    model = KVEC(
        dataset.spec,
        num_classes=dataset.num_classes,
        config=KVECConfig(dropout=0.0, encoding="rotary", seed=GATE_SEED),
    )
    config = ClusterConfig(
        num_shards=1,
        batch_size=width,
        auto_drain=False,
        max_queue=streams * (window + repeats),
        # Only the checkpoints timed below: none inside a timed round.
        supervision=SupervisorConfig(checkpoint=CheckpointConfig(every_rounds=10**9)),
        engine=EngineConfig(window_items=window),
    )
    with ServingCluster(model, dataset.spec, config) as cluster:
        shard = cluster.shards[0]
        for events in per_stream:
            for event in events[:window]:
                cluster.submit(event)
        cluster.drain()
        capture_s, round_s = [], []
        for repeat in range(repeats):
            start = time.perf_counter()
            shard.supervisor.checkpoint_now()
            capture_s.append(time.perf_counter() - start)
            half = (repeat % 2) * width
            for events in per_stream[half : half + width]:
                cluster.submit(events[window + repeat])
            rounds = shard.monitor.rounds
            start = time.perf_counter()
            cluster.serve_shard(0)
            round_s.append(time.perf_counter() - start)
            assert shard.monitor.rounds == rounds + 1
        saturated = min(len(session.window) for session in shard.sessions.values())
    capture_ms = statistics.median(capture_s) * 1e3
    round_ms = statistics.median(round_s) * 1e3
    return {
        "saturated_window": saturated,
        "capture_ms": capture_ms,
        "round_ms": round_ms,
        "capture_vs_round": capture_ms / round_ms,
    }


def test_checkpoint_capture_at_most_6x_one_drain_round(checkpoint_gate_result):
    """Checkpoint-cost gate: sessions deep-copy container by container, so
    capturing one shard of 32 saturated rotary sessions (window 128) costs
    at most 6x one width-16 drain round of that shard.  A generic object
    walk over every windowed item measured ~15-19x on a 2-core x86-64
    box; the container copies ~2.3x.  A ratio, so host load cancels."""
    result = checkpoint_gate_result
    assert result["saturated_window"] == 128, result
    assert result["capture_vs_round"] <= 6.0, result

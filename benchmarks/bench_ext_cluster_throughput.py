"""Extension bench: aggregate multi-stream throughput of the serving cluster.

Not a paper artifact.  This measures the deployment story of the sharded
serving subsystem: how many arrivals per second a :class:`ServingCluster`
sustains across many concurrent streams, as a function of

* **shard count** — how the hash-routed workers split the stream population,
* **shard batch size** — the cap on the cross-stream batched row encoding
  (``batch_size=1`` degenerates to the serial per-arrival GEMV loop; larger
  batches drain each queue with one GEMM per block via ``append_batch``).

Traffic comes from :class:`~repro.serving.simulator.MultiStreamSimulator`
(Zipf-skewed stream shares, so shards see realistic hot-stream imbalance).
The tentpole acceptance gate of the sharded-cluster PR is the
``run_batch_speedup`` microbench: cross-stream ``append_batch`` must beat the
serial per-arrival encoding by >= 2x at batch >= 8, window 256, rotary
(asserted by ``pytest -m perf_smoke``).

``run_parallel_throughput`` is an **executor × shard-count × traffic-shape**
sweep (serial vs thread worker pool, uniform vs Zipf-skewed streams, rounds
of at most ``FIXED_BATCH`` arrivals) over the drain-scheduling serving
pattern (``auto_drain=False``: submissions enqueue, explicit drains let the
thread backend overlap shards on real cores).  Its gate —
``run_parallel_drain_gate``, asserted by ``pytest -m perf_smoke`` on
multi-core machines — requires the thread backend to drain
>= 1.5x faster than the serial backend at 4 shards, window 128, 64 streams.

The network-tier PR adds ``run_net_throughput``: identical traffic submitted
through the loopback HTTP front end (``ServingHTTPServer`` +
``ServingHTTPClient``: request framing, JSON event/decision codecs, one
socket round-trip per event) vs directly through the async gateway — the
ratio is the serving tax of the wire, and the perf_smoke net gate bounds it
from below (HTTP >= 0.5x direct).

Results are echoed as text and merged into ``BENCH_serving.json`` at the repo
root (with ``cpus`` and ``blas_threads`` fields on the parallel and network
records, since both depend on how many cores the BLAS and the shards share)
so future PRs can track the trajectory.
"""

from __future__ import annotations

import asyncio
import copy
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from benchmarks.conftest import RESULTS_DIR, bench_scale, write_bench_json

from repro.core.config import KVECConfig
from repro.core.incremental import append_batch
from repro.core.model import KVEC
from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.serving.aio import AsyncServingGateway
from repro.serving.cluster import ClusterConfig, ServingCluster
from repro.serving.engine import EngineConfig
from repro.serving.net import ServingHTTPClient, ServingHTTPServer
from repro.serving.parallel import available_cpus
from repro.serving.simulator import MultiStreamConfig, MultiStreamSimulator, SimulatorConfig

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

#: Sweep presets: (window, num_streams, num_sequences, sequence_length).
SCALES = {
    "unit": (48, 16, 48, 24),
    "bench": (128, 32, 96, 48),
    "paper": (256, 64, 128, 96),
}

SHARD_COUNTS = (1, 2, 4)
BATCH_SIZES = (1, 8, 16)

#: Parallel sweep axes: executor backend x traffic shape.
EXECUTORS = ("serial", "thread")
TRAFFIC_SHAPES = ("uniform", "zipf")
#: Round width of the parallel sweep.
FIXED_BATCH = 16


def make_model(
    seed: int = 0,
    window: int = 0,
    encoding: str = "rotary",
    d_model: int = 32,
    ffn_hidden: int = 64,
) -> KVEC:
    config = KVECConfig(
        d_model=d_model,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=ffn_hidden,
        d_state=48,
        dropout=0.0,
        encoding=encoding,
        max_time=max(512, 2 * window),
        seed=seed,
    )
    return KVEC(SPEC, num_classes=4, config=config)


def make_traffic(
    num_streams: int,
    num_sequences: int,
    sequence_length: int,
    seed: int = 0,
    stream_skew: float = 0.8,
):
    """A multi-stream arrival process over synthetic flows."""
    rng = np.random.default_rng(seed)
    pool: List[KeyValueSequence] = []
    for index in range(num_sequences):
        items = [
            Item(
                f"flow-{index}",
                (int(rng.integers(8)), int(rng.integers(2))),
                float(step),
            )
            for step in range(sequence_length)
        ]
        pool.append(KeyValueSequence(f"flow-{index}", items, label=index % 4))
    simulator = MultiStreamSimulator(
        pool,
        MultiStreamConfig(
            num_streams=num_streams,
            stream_skew=stream_skew,
            simulator=SimulatorConfig(arrival_rate=2.0, gap_scale=0.25, seed=seed),
        ),
    )
    return list(simulator.events())


def measure_cluster(
    model: KVEC, events, window: int, num_shards: int, batch_size: int
) -> Dict[str, float]:
    """Wall-clock the arrival hot path (consume + drain; flush untimed)."""
    cluster = ServingCluster(
        model,
        SPEC,
        ClusterConfig(
            num_shards=num_shards,
            batch_size=batch_size,
            # halt_threshold=1.0 keeps every key pending — the worst case,
            # where no early decision shrinks any session's work.
            engine=EngineConfig(window_items=window, halt_threshold=1.0),
        ),
    )
    start = time.perf_counter()
    cluster.consume(events)
    cluster.drain()
    elapsed = time.perf_counter() - start
    cluster.flush()
    stats = cluster.stats()
    return {
        "elapsed_s": elapsed,
        "throughput_items_per_sec": len(events) / elapsed,
        "batch_rounds": stats["batch_rounds"],
        "batched_rows": stats["batched_rows"],
        "num_sessions": stats["num_sessions"],
    }


def run_cluster_throughput(
    scale_name: str, emit_json: bool = True, seed: int = 0
) -> Dict[str, object]:
    """Deterministic shard-count x batch-size throughput sweep."""
    window, num_streams, num_sequences, sequence_length = SCALES.get(
        scale_name, SCALES["bench"]
    )
    model = make_model(seed=seed, window=window)
    events = make_traffic(num_streams, num_sequences, sequence_length, seed=seed)

    grid: Dict[str, Dict[str, object]] = {}
    for num_shards in SHARD_COUNTS:
        row: Dict[str, object] = {}
        for batch_size in BATCH_SIZES:
            row[str(batch_size)] = measure_cluster(
                model, events, window, num_shards, batch_size
            )
        serial_rate = row["1"]["throughput_items_per_sec"]
        for batch_size in BATCH_SIZES:
            cell = row[str(batch_size)]
            cell["speedup_vs_serial"] = (
                cell["throughput_items_per_sec"] / serial_rate
            )
        grid[str(num_shards)] = row

    result = {
        "scale": scale_name,
        "window": window,
        "num_streams": num_streams,
        "stream_items": len(events),
        "shards_x_batch": grid,
        "batch_microbench": run_batch_speedup(
            window=window, batch=8, seed=seed, rounds=16
        ),
    }
    if emit_json:
        write_bench_json("cluster_throughput", result)
    return result


def measure_parallel_drain(
    model: KVEC,
    events,
    window: int,
    num_shards: int,
    executor: str,
    repeats: int = 2,
) -> Dict[str, object]:
    """Wall-clock one cluster drain under the drain-scheduling pattern.

    Submissions only enqueue (``auto_drain=False``); the timed section is
    one explicit :meth:`ServingCluster.drain`, which the thread backend runs
    with all shards overlapped on the pinned worker pool.  Each repeat
    serves a fresh cluster; the fastest repeat is kept (the least
    scheduler-contaminated estimate).
    """
    best: Dict[str, object] = {}
    for _ in range(repeats):
        config = ClusterConfig(
            num_shards=num_shards,
            batch_size=FIXED_BATCH,
            auto_drain=False,
            max_queue=len(events) + 1,
            executor=executor,
            # halt_threshold=1.0 keeps every key pending — the worst case,
            # where no early decision shrinks any session's work.
            engine=EngineConfig(window_items=window, halt_threshold=1.0),
        )
        with ServingCluster(model, SPEC, config) as cluster:
            for event in events:
                cluster.submit(event)
            start = time.perf_counter()
            cluster.drain()
            elapsed = time.perf_counter() - start
            stats = cluster.stats()
        measured = {
            "elapsed_s": elapsed,
            "throughput_items_per_sec": len(events) / elapsed,
            "rounds": stats["rounds"],
            "batch_rounds": stats["batch_rounds"],
            "batched_rows": stats["batched_rows"],
            "round_latency_p50_ms": stats["round_latency_ms"]["p50"],
            "round_latency_p99_ms": stats["round_latency_ms"]["p99"],
        }
        if not best or measured["elapsed_s"] < best["elapsed_s"]:
            best = measured
    return best


def run_parallel_throughput(
    scale_name: str, emit_json: bool = True, seed: int = 0
) -> Dict[str, object]:
    """Executor x shard-count x traffic-shape drain sweep."""
    window, num_streams, num_sequences, sequence_length = SCALES.get(
        scale_name, SCALES["bench"]
    )
    model = make_model(seed=seed, window=window)

    traffic: Dict[str, Dict[str, object]] = {}
    for shape in TRAFFIC_SHAPES:
        events = make_traffic(
            num_streams,
            num_sequences,
            sequence_length,
            seed=seed,
            stream_skew=0.0 if shape == "uniform" else 1.2,
        )
        grid: Dict[str, Dict[str, object]] = {}
        for num_shards in SHARD_COUNTS:
            row: Dict[str, object] = {
                executor: measure_parallel_drain(
                    model, events, window, num_shards, executor
                )
                for executor in EXECUTORS
            }
            row["thread"]["speedup_vs_serial"] = (
                row["thread"]["throughput_items_per_sec"]
                / row["serial"]["throughput_items_per_sec"]
            )
            grid[str(num_shards)] = row
        traffic[shape] = {"stream_items": len(events), "shards": grid}

    result = {
        "scale": scale_name,
        "window": window,
        "num_streams": num_streams,
        "fixed_batch": FIXED_BATCH,
        "seed": seed,
        "cpus": available_cpus(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "traffic": traffic,
    }
    if emit_json:
        write_bench_json("parallel_throughput", result)
    return result


def run_parallel_drain_gate(
    window: int = 128,
    num_streams: int = 64,
    num_shards: int = 4,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, object]:
    """Perf-smoke gate: thread-pool drain vs serial, same work.

    4 shards x 64 uniform streams at window 128 (the acceptance geometry of
    the parallel-execution PR); the model is sized so the drain rounds are
    BLAS-dominated (that is what the thread pool overlaps — numpy releases
    the GIL inside the batched GEMMs and ufuncs, while per-arrival Python
    bookkeeping stays serialised and caps the achievable speedup).
    """
    model = make_model(seed=seed, window=window, d_model=96, ffn_hidden=192)
    events = make_traffic(num_streams, 128, 48, seed=seed, stream_skew=0.0)
    cells = {
        executor: measure_parallel_drain(
            model, events, window, num_shards, executor, repeats=repeats
        )
        for executor in EXECUTORS
    }
    return {
        "window": window,
        "num_streams": num_streams,
        "num_shards": num_shards,
        "stream_items": len(events),
        "cpus": available_cpus(),
        "serial": cells["serial"],
        "thread": cells["thread"],
        "speedup": cells["thread"]["throughput_items_per_sec"]
        / cells["serial"]["throughput_items_per_sec"],
    }


#: Events submitted per net-throughput leg, by bench scale.
NET_EVENTS = {"unit": 200, "bench": 400, "paper": 800}


def run_net_throughput(
    window: int = 128,
    num_streams: int = 8,
    max_events: int = 400,
    num_shards: int = 2,
    seed: int = 0,
    repeats: int = 2,
    emit_json: bool = True,
) -> Dict[str, object]:
    """HTTP-loopback vs direct-async-gateway submission throughput.

    Both legs serve the identical model, traffic and cluster config through
    the identical :class:`AsyncServingGateway` machinery; the HTTP leg adds
    request framing, the JSON event/decision codecs and one loopback socket
    round-trip per event on top.  The ratio is the serving tax of the
    network tier.  Each leg runs ``repeats`` times on a fresh stack and the
    fastest run is kept (the least scheduler-contaminated estimate); the
    timed section is the submit loop plus the final flush, so both legs
    account the same serving work.

    The gate-geometry model (d_model 96, window 128) keeps each event's
    serving compute realistic; a toy model would let the fixed per-request
    socket cost dominate and the ratio would measure the event loop, not
    the protocol layer.
    """
    model = make_model(seed=seed, window=window, d_model=96, ffn_hidden=192)
    events = make_traffic(num_streams, 48, 24, seed=seed)[:max_events]

    def cluster_config() -> ClusterConfig:
        return ClusterConfig(
            num_shards=num_shards,
            batch_size=4,
            # halt_threshold=1.0 keeps every key pending — the worst case,
            # where no early decision shrinks any session's work.
            engine=EngineConfig(window_items=window, halt_threshold=1.0),
        )

    async def direct_leg() -> float:
        gateway = AsyncServingGateway(model, SPEC, cluster_config())
        start = time.perf_counter()
        for event in events:
            await gateway.submit(event)
        await gateway.flush()
        elapsed = time.perf_counter() - start
        await gateway.close()
        return elapsed

    async def http_leg() -> float:
        async with ServingHTTPServer(
            model=model, spec=SPEC, config=cluster_config()
        ) as server:
            async with ServingHTTPClient(server.host, server.port) as client:
                start = time.perf_counter()
                for event in events:
                    await client.submit(event.source, event)
                await client.flush()
                elapsed = time.perf_counter() - start
                await client.shutdown()
        return elapsed

    direct_s = min(asyncio.run(direct_leg()) for _ in range(repeats))
    http_s = min(asyncio.run(http_leg()) for _ in range(repeats))
    result: Dict[str, object] = {
        "window": window,
        "num_streams": num_streams,
        "stream_items": len(events),
        "num_shards": num_shards,
        "seed": seed,
        "cpus": available_cpus(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "direct": {
            "elapsed_s": direct_s,
            "throughput_items_per_sec": len(events) / direct_s,
        },
        "http": {
            "elapsed_s": http_s,
            "throughput_items_per_sec": len(events) / http_s,
        },
        "http_vs_direct": direct_s / http_s,
    }
    if emit_json:
        write_bench_json("net_throughput", result)
    return result


def run_batch_speedup(
    window: int = 256,
    batch: int = 8,
    rounds: int = 24,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, float]:
    """Microbench: cross-stream ``append_batch`` vs serial per-arrival appends.

    ``batch`` saturated rotary ring states (one per stream, shared model) are
    prefilled to ``window`` rows; each measured round evicts one row per
    state and encodes one new arrival per state, then takes its halting
    probability — serially via ``state.append`` + a per-row policy GEMV, vs
    batched via ``append_batch`` + one policy GEMM (exactly the work a shard
    drain round performs per arrival).  Both sides run the identical
    eviction maintenance, so the ratio isolates the encoding path.  Each
    side is measured ``repeats`` times on identically prepared states and
    the fastest run is kept (standard microbench practice: the minimum is
    the least scheduler-noise-contaminated estimate).
    """
    model = make_model(seed=seed, window=window)
    rng = np.random.default_rng(seed + 1)

    def draw(state_index: int, step: int) -> Item:
        return Item(
            f"s{state_index}-k{rng.integers(4)}",
            (int(rng.integers(8)), int(rng.integers(2))),
            float(step),
        )

    states = [model.make_incremental_state(capacity=window) for _ in range(batch)]
    for step in range(window):
        append_batch(states, [draw(i, step) for i in range(batch)])

    items = [[draw(i, window + step) for i in range(batch)] for step in range(rounds)]
    policy = model.policy

    def run_pair() -> Tuple[float, float]:
        """One repeat: serial and batched rounds interleaved step by step so
        machine-noise phases contaminate both sides equally."""
        serial_replicas = copy.deepcopy(states, {id(model): model})
        batched_replicas = copy.deepcopy(states, {id(model): model})
        serial_total = 0.0
        batched_total = 0.0
        for step in range(rounds):
            start = time.perf_counter()
            for state, item in zip(serial_replicas, items[step]):
                state.evict_oldest()
                policy.halt_probability_inference(state.append(item))
            serial_total += time.perf_counter() - start

            start = time.perf_counter()
            for state in batched_replicas:
                state.evict_oldest()
            representations = append_batch(batched_replicas, items[step])
            policy.halt_probabilities_inference(np.stack(representations))
            batched_total += time.perf_counter() - start
        return serial_total, batched_total

    pairs = [run_pair() for _ in range(repeats)]
    serial_elapsed = min(pair[0] for pair in pairs)
    batched_elapsed = min(pair[1] for pair in pairs)

    total = rounds * batch
    return {
        "window": window,
        "batch": batch,
        "rounds": rounds,
        "serial_ms_per_item": serial_elapsed / total * 1e3,
        "batched_ms_per_item": batched_elapsed / total * 1e3,
        "speedup": serial_elapsed / batched_elapsed,
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        "Sharded multi-stream cluster throughput (items/sec, consume+drain)",
        f"  window={result['window']}  streams={result['num_streams']}  "
        f"events={result['stream_items']}",
    ]
    for num_shards, row in result["shards_x_batch"].items():
        for batch_size, cell in row.items():
            lines.append(
                f"  shards={num_shards}  batch={batch_size:>2}  "
                f"{cell['throughput_items_per_sec']:10.1f} items/s  "
                f"({cell['speedup_vs_serial']:5.2f}x vs serial, "
                f"{cell['batch_rounds']} batch rounds)"
            )
    micro = result["batch_microbench"]
    lines.append(
        f"  append_batch microbench: window={micro['window']} batch={micro['batch']}  "
        f"serial={micro['serial_ms_per_item']:.3f}ms/item  "
        f"batched={micro['batched_ms_per_item']:.3f}ms/item  "
        f"speedup={micro['speedup']:.1f}x"
    )
    return "\n".join(lines)


def render_parallel(result: Dict[str, object]) -> str:
    lines = [
        "Parallel shard execution: drain throughput (items/sec)",
        f"  window={result['window']}  streams={result['num_streams']}  "
        f"cpus={result['cpus']}  blas_threads={result['blas_threads']}  "
        f"fixed_batch={result['fixed_batch']}",
    ]
    for shape, block in result["traffic"].items():
        lines.append(f"  traffic={shape}  events={block['stream_items']}")
        for num_shards, row in block["shards"].items():
            for cell_name, cell in row.items():
                speedup = cell.get("speedup_vs_serial")
                suffix = f"  ({speedup:5.2f}x vs serial)" if speedup else ""
                lines.append(
                    f"    shards={num_shards}  {cell_name:<12} "
                    f"{cell['throughput_items_per_sec']:10.1f} items/s  "
                    f"p99 round {cell['round_latency_p99_ms']:6.2f}ms{suffix}"
                )
    return "\n".join(lines)


def render_net(result: Dict[str, object]) -> str:
    return "\n".join(
        [
            "HTTP loopback vs direct async gateway (items/sec, submit+flush)",
            f"  window={result['window']}  streams={result['num_streams']}  "
            f"events={result['stream_items']}  shards={result['num_shards']}  "
            f"cpus={result['cpus']}  blas_threads={result['blas_threads']}",
            f"  direct {result['direct']['throughput_items_per_sec']:10.1f} items/s",
            f"  http   {result['http']['throughput_items_per_sec']:10.1f} items/s  "
            f"({result['http_vs_direct']:5.2f}x direct)",
        ]
    )


def test_net_throughput(benchmark, scale_name):
    result = benchmark.pedantic(
        lambda: run_net_throughput(
            max_events=NET_EVENTS.get(scale_name, NET_EVENTS["bench"])
        ),
        rounds=1,
        iterations=1,
    )
    rendered = render_net(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ext_net_throughput_{bench_scale()}.txt").write_text(
        rendered + "\n"
    )
    print("\n" + rendered)
    # The perf_smoke net gate asserts the 0.5x floor; here we only require
    # both legs to have served every event.
    assert result["direct"]["throughput_items_per_sec"] > 0
    assert result["http"]["throughput_items_per_sec"] > 0


def test_parallel_throughput(benchmark, scale_name):
    result = benchmark.pedantic(
        lambda: run_parallel_throughput(scale_name), rounds=1, iterations=1
    )
    rendered = render_parallel(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ext_parallel_throughput_{bench_scale()}.txt").write_text(
        rendered + "\n"
    )
    print("\n" + rendered)
    # Thread-pool speedup is asserted by the perf_smoke gate (which skips on
    # single-core machines); here we only require the sweep to be complete
    # and the parallel backends to not corrupt throughput accounting.
    for shape in TRAFFIC_SHAPES:
        for num_shards in SHARD_COUNTS:
            row = result["traffic"][shape]["shards"][str(num_shards)]
            assert set(row) == set(EXECUTORS)


def test_cluster_throughput(benchmark, scale_name):
    result = benchmark.pedantic(
        lambda: run_cluster_throughput(scale_name), rounds=1, iterations=1
    )
    rendered = render(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ext_cluster_throughput_{bench_scale()}.txt").write_text(
        rendered + "\n"
    )
    print("\n" + rendered)

    # The acceptance gate of the sharded-cluster PR: batched multi-stream
    # serving must decisively beat the serial per-arrival loop.  The single
    # shard row is the canonical comparison (all streams available to every
    # round); sharding shrinks each worker's stream population and therefore
    # the effective batch, so multi-shard rows get a conservative floor.
    for num_shards in SHARD_COUNTS:
        row = result["shards_x_batch"][str(num_shards)]
        floor = 2.0 if num_shards == 1 else 1.2
        assert row["8"]["speedup_vs_serial"] >= floor, (num_shards, row)
    assert result["batch_microbench"]["speedup"] >= 2.0, result["batch_microbench"]

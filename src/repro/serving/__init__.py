"""Online serving of early classification over live tangled streams.

The paper's motivating scenarios (Fig. 1) are *online*: a router must label
each flow while its packets are still arriving, and a recommender must
profile a user while she is still browsing.  The offline evaluation harness
in :mod:`repro.eval` replays complete tangled sequences; this subpackage is
the serving-side counterpart, layered session → shard → cluster → gateway:

* :class:`~repro.serving.simulator.ArrivalSimulator` — turns a generated
  dataset into one live arrival process with a controllable number of
  concurrently active keys (and optional Zipf hot-key skew);
  :class:`~repro.serving.simulator.MultiStreamSimulator` merges many such
  processes into one source-tagged multi-stream timeline,
* :class:`~repro.serving.engine.StreamSession` — one stream's window,
  incremental KV-cache and decision machinery;
  :class:`~repro.serving.engine.OnlineClassificationEngine` is its
  historical single-stream name (an alias),
* :class:`~repro.serving.cluster.ServingCluster` — hash-routes stream ids
  across :class:`~repro.serving.cluster.ShardWorker` instances, bounds
  each shard's queue (a full one is served a round before the arrival is
  admitted), drains each shard in rounds of at most
  ``batch_size`` arrivals with cross-stream *batched* row encoding (inline
  on the caller, or overlapped across cores by the
  :mod:`~repro.serving.parallel` thread backend), and supports
  snapshot/restore plus an explicit running → draining → closed lifecycle,
* **push-based delivery** — :meth:`~repro.serving.cluster.ServingCluster.submit`
  returns a :class:`~repro.serving.results.SubmitResult` (explicit
  ``accepted`` / ``decided`` / ``degraded`` admission outcome,
  the emitted ``decisions`` and queue-depth telemetry),
  and subscribed :class:`~repro.serving.sinks.DecisionSink` instances
  (bounded buffer, fan-out, asyncio queue) receive every emitted
  decision in the exact order of the returned-list API — delivery is
  backend-deterministic and parity-tested,
* :class:`~repro.serving.aio.AsyncServingGateway` — the asyncio front end
  the HTTP tier runs on: ``await gateway.submit(...)`` admits on the loop
  and one gateway-owned round thread serves every queued arrival in its
  shard's next round (continuous batching), ``async for decision in
  gateway.decisions()``, per-key ``gateway.result(stream, key)`` futures
  resolved at emission, and ``await gateway.flush_stream(stream)``,
* :mod:`~repro.serving.monitoring` — running accuracy/earliness/latency
  aggregation plus sliding-window throughput meters, mergeable across
  shards into a cluster-level view
  (``ServingCluster.stats()["items_per_s"]`` / ``["decisions_per_s"]``),
* **fault tolerance** — every shard runs under a
  :class:`~repro.serving.supervisor.ShardSupervisor`: periodic
  checkpointing (:class:`~repro.serving.supervisor.CheckpointConfig`),
  automatic bit-for-bit crash recovery from the last checkpoint, a
  closed → open → half-open :class:`~repro.serving.supervisor.CircuitBreaker`
  per shard with graceful degradation (``status="degraded"``
  submissions), and quarantine of persistently failing sinks — all
  observable through
  ``ServingCluster.stats()["health"]`` and all deterministically testable
  with the seeded :class:`~repro.serving.faults.FaultInjector`
  (``ClusterConfig.faults``),
* :mod:`~repro.serving.net` — the network tier:
  :class:`~repro.serving.net.server.ServingHTTPServer` serves a gateway
  over hand-rolled stdlib HTTP/1.1 (submission statuses mapped to
  response codes, a chunked NDJSON decision-push stream with bounded-
  buffer backpressure, stats/health/admin verbs — ``python -m
  repro.serve`` from the command line),
  :class:`~repro.serving.net.client.ServingHTTPClient` speaks the wire
  protocol for loopback tests and examples, and
  :class:`~repro.serving.net.router.ClusterRouter` consistent-hashes
  stream ids across N independent clusters with live stream migration
  (:meth:`~repro.serving.cluster.ServingCluster.extract_stream` /
  ``install_stream`` move a session + queued arrivals bit-exactly) plus
  checkpoint-and-journal node recovery.
"""

from repro.serving.aio import AsyncServingGateway
from repro.serving.cluster import (
    ClusterConfig,
    ClusterSnapshot,
    OutOfOrderEventError,
    ServingCluster,
    ShardWorker,
    StreamDecision,
    StreamState,
)
from repro.serving.faults import (
    FAULT_ACTIONS,
    FAULT_SITES,
    FaultInjectingSink,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ShardKilled,
)
from repro.serving.engine import (
    Decision,
    EngineConfig,
    OnlineClassificationEngine,
    StreamSession,
)
from repro.serving.net import (
    ClusterRouter,
    NetDecision,
    NetSubmitResult,
    RouterSnapshot,
    ServingHTTPClient,
    ServingHTTPServer,
)
from repro.serving.monitoring import (
    DecisionMonitor,
    HistogramSnapshot,
    Log2Histogram,
    MonitorSnapshot,
    ShardMonitor,
    ShardMonitorSnapshot,
    ThroughputMeter,
)
from repro.serving.parallel import (
    JobHandle,
    SerialExecutor,
    ShardExecutor,
    ThreadExecutor,
)
from repro.serving.results import SUBMIT_STATUSES, ConsumeSummary, SubmitResult
from repro.serving.simulator import (
    ArrivalSimulator,
    MultiStreamConfig,
    MultiStreamSimulator,
    SimulatorConfig,
)
from repro.serving.sinks import (
    AsyncQueueSink,
    BufferedSink,
    DecisionSink,
    FanOutSink,
)
from repro.serving.supervisor import (
    BREAKER_STATES,
    CheckpointConfig,
    CircuitBreaker,
    ShardSupervisor,
    SupervisorConfig,
)

__all__ = [
    "Decision",
    "EngineConfig",
    "StreamSession",
    "OnlineClassificationEngine",
    "ClusterConfig",
    "ClusterSnapshot",
    "OutOfOrderEventError",
    "ServingCluster",
    "ShardWorker",
    "StreamDecision",
    "StreamState",
    "ServingHTTPServer",
    "ServingHTTPClient",
    "NetDecision",
    "NetSubmitResult",
    "ClusterRouter",
    "RouterSnapshot",
    "BREAKER_STATES",
    "CheckpointConfig",
    "CircuitBreaker",
    "ShardSupervisor",
    "SupervisorConfig",
    "FAULT_SITES",
    "FAULT_ACTIONS",
    "FaultSpec",
    "FaultInjector",
    "FaultInjectingSink",
    "InjectedFault",
    "ShardKilled",
    "SUBMIT_STATUSES",
    "SubmitResult",
    "ConsumeSummary",
    "DecisionSink",
    "BufferedSink",
    "FanOutSink",
    "AsyncQueueSink",
    "AsyncServingGateway",
    "ShardExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "JobHandle",
    "ArrivalSimulator",
    "SimulatorConfig",
    "MultiStreamConfig",
    "MultiStreamSimulator",
    "DecisionMonitor",
    "MonitorSnapshot",
    "Log2Histogram",
    "HistogramSnapshot",
    "ShardMonitor",
    "ShardMonitorSnapshot",
    "ThroughputMeter",
]

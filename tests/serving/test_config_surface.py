"""The serving configuration surface: which knobs exist, and what a dropped
one does.

Every field of :class:`ClusterConfig`, :class:`SupervisorConfig` and
:class:`EngineConfig` is one some deployment caller sets; adding a field is
a deliberate change to the list below.  Options the serving API no longer
has — the full-queue overflow policies, the shared-worker count, the stats
window, the degraded-submit policy, eager evaluation, the round deadline,
the gateway's decision-stream bound, the worker thread-name prefix, the
queue sink's put timeout, the idle timeout, the window's age bound and the
``raise_on_reject`` keyword of the submit paths — fail with Python's own
``TypeError`` where a caller passes them: there is no shim that accepts the
keyword and ignores it.  Idle-timeout expiry is gone from every layer, down
to the HTTP admin verb: keys are decided by the halting policy or by a
flush.  Every count field takes an ``int`` and nothing else.
"""

import asyncio
from dataclasses import fields

import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import SlidingWindow, StreamEvent
from repro.serving import (
    AsyncQueueSink,
    AsyncServingGateway,
    CheckpointConfig,
    ClusterConfig,
    ClusterRouter,
    EngineConfig,
    ServingCluster,
    StreamSession,
    SupervisorConfig,
)
from repro.serving.cluster import ShardWorker
from repro.serving.net import ServingHTTPClient
from repro.serving.parallel import ThreadExecutor, make_executor

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

#: The fields each config carries, in declaration order.
CONFIG_FIELDS = {
    ClusterConfig: (
        "num_shards",
        "batch_size",
        "max_queue",
        "auto_drain",
        "executor",
        "supervision",
        "faults",
        "engine",
    ),
    SupervisorConfig: (
        "checkpoint",
        "failure_threshold",
        "backoff_base_s",
        "backoff_factor",
        "backoff_max_s",
        "sink_quarantine_after",
        "clock",
    ),
    EngineConfig: (
        "window_items",
        "halt_threshold",
        "reencode_every",
        "mode",
    ),
}

#: ``(config class, dropped keyword, a value the old field accepted)``.
DROPPED_CONFIG_KEYWORDS = [
    (ClusterConfig, "overflow", "reject"),
    (ClusterConfig, "num_workers", 1),
    (ClusterConfig, "stats_window", 60.0),
    (SupervisorConfig, "degraded", "reject"),
    (SupervisorConfig, "round_deadline_s", 0.5),
    (EngineConfig, "eager", True),
    (EngineConfig, "idle_timeout", 6.0),
]

#: ``(config class, count field, a value that is not an int)``; each of
#: these was accepted before the configs shared one type check.
NON_INT_COUNTS = [
    (EngineConfig, "window_items", 2.5),
    (EngineConfig, "window_items", True),
    (EngineConfig, "reencode_every", 2.0),
    (EngineConfig, "reencode_every", True),
    (CheckpointConfig, "every_rounds", 1.5),
    (CheckpointConfig, "every_rounds", True),
    (SupervisorConfig, "failure_threshold", 2.0),
    (SupervisorConfig, "failure_threshold", True),
    (SupervisorConfig, "sink_quarantine_after", 3.0),
    (SupervisorConfig, "sink_quarantine_after", True),
    (ClusterConfig, "max_queue", 2.5),
    (ClusterConfig, "num_shards", 2.0),
]


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


def one_event() -> StreamEvent:
    return StreamEvent(time=0.0, item=Item("k0", (1, 0), 0.0), source="stream-0")


def _gateway_submit(cluster, event, **kwargs):
    async def scenario():
        gateway = AsyncServingGateway(cluster=cluster)
        try:
            await gateway.submit(event, **kwargs)
        finally:
            await gateway.close()

    asyncio.run(scenario())


#: Every submit path that took ``raise_on_reject``, called with it.
SUBMIT_PATHS = {
    "ShardWorker.submit": lambda cluster, event, **kw: cluster.shards[0].submit(
        event.source, event, **kw
    ),
    "ServingCluster.submit": lambda cluster, event, **kw: cluster.submit(event, **kw),
    "ServingCluster.admit": lambda cluster, event, **kw: cluster.admit(event, **kw),
    "ServingCluster.consume": lambda cluster, event, **kw: cluster.consume(
        [event], **kw
    ),
    "AsyncServingGateway.submit": _gateway_submit,
    "ClusterRouter.submit": lambda cluster, event, **kw: ClusterRouter([cluster]).submit(
        event, **kw
    ),
}


class TestConfigFields:
    @pytest.mark.parametrize(
        "config_class", list(CONFIG_FIELDS), ids=lambda cls: cls.__name__
    )
    def test_fields_are_the_documented_ones(self, config_class):
        assert tuple(f.name for f in fields(config_class)) == CONFIG_FIELDS[config_class]
        config_class()  # every field has a default

    @pytest.mark.parametrize(
        "config_class,keyword,value",
        DROPPED_CONFIG_KEYWORDS,
        ids=[f"{cls.__name__}.{keyword}" for cls, keyword, _ in DROPPED_CONFIG_KEYWORDS],
    )
    def test_dropped_field_is_a_type_error(self, config_class, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            config_class(**{keyword: value})

    @pytest.mark.parametrize(
        "config_class,name,value",
        NON_INT_COUNTS,
        ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in NON_INT_COUNTS],
    )
    def test_count_fields_take_only_ints(self, config_class, name, value):
        """A bool would pass as 0 or 1 and a float would size a ring or set
        a cadence; the error names the field."""
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            config_class(**{name: value})


class TestDroppedKeywords:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThreadExecutor(2, num_workers=1),
            lambda: make_executor("thread", 2, num_workers=1),
        ],
        ids=["ThreadExecutor", "make_executor"],
    )
    def test_worker_count_keyword_is_a_type_error(self, build):
        """One worker per shard is the only thread topology; the argument
        that chose another is gone (no pool is started)."""
        with pytest.raises(TypeError, match="num_workers"):
            build()

    @pytest.mark.parametrize(
        "build,keyword",
        [
            (lambda: ThreadExecutor(2, name_prefix="worker"), "name_prefix"),
            (lambda: AsyncServingGateway(make_model(), SPEC, max_buffered=4), "max_buffered"),
            (lambda: AsyncQueueSink(None, None, put_timeout=1.0), "put_timeout"),
            (lambda: SlidingWindow(max_items=4, max_age=1.0), "max_age"),
        ],
        ids=["ThreadExecutor", "AsyncServingGateway", "AsyncQueueSink", "SlidingWindow"],
    )
    def test_dropped_constructor_keyword_is_a_type_error(self, build, keyword):
        """Worker threads have fixed names, ``decisions()`` reads the
        gateway's history unbounded (the HTTP push stream keeps its own
        bound), a bounded queue sink's put timeout is a constant and a
        serving window is bounded by its item count alone; the call fails
        before anything is built."""
        with pytest.raises(TypeError, match=keyword):
            build()

    @pytest.mark.parametrize("path", list(SUBMIT_PATHS))
    def test_raise_on_reject_is_a_type_error(self, path):
        """Nothing is rejected any more (a full queue serves a round, then
        admits; a breaker-open shard answers ``degraded``), so no submit
        path takes the keyword; the call fails before admitting anything."""
        with ServingCluster(make_model(), SPEC, ClusterConfig(auto_drain=False)) as cluster:
            with pytest.raises(TypeError, match="raise_on_reject"):
                SUBMIT_PATHS[path](cluster, one_event(), raise_on_reject=False)
            assert cluster.stats()["queue_depths"] == [0]
            assert cluster.num_sessions == 0


class TestNoExpiry:
    @pytest.mark.parametrize(
        "cls",
        [StreamSession, ShardWorker, ServingCluster, AsyncServingGateway, ClusterRouter,
         ServingHTTPClient],
        ids=lambda cls: cls.__name__,
    )
    def test_no_expire_entry_point(self, cls):
        """No serving layer offers idle-timeout expiry; ``flush`` and
        ``flush_stream`` are the ways to force-decide keys."""
        assert not [name for name in dir(cls) if "expire" in name]

"""Exactness tests: the incremental KV-cached engine vs full re-encode.

The incremental engine must be a pure optimisation: across random streams —
including streams long enough to trigger window evictions and cache rebuilds
— its decisions (predicted label, confidence, halt step, decision kind) must
match the ``mode="full"`` reference engine up to float tolerance.
"""

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.nn.tensor import no_grad
from repro.serving.engine import EngineConfig, OnlineClassificationEngine

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

TOLERANCE = 1e-9


def make_model(fusion: str = "gated", seed: int = 0) -> KVEC:
    config = KVECConfig(
        d_model=16,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=24,
        d_state=20,
        dropout=0.0,
        fusion=fusion,
        seed=seed,
    )
    return KVEC(SPEC, num_classes=3, config=config)


def random_stream(num_items: int, num_keys: int, seed: int):
    rng = np.random.default_rng(seed)
    events = []
    for index in range(num_items):
        key = f"k{rng.integers(num_keys)}"
        value = (int(rng.integers(8)), int(rng.integers(2)))
        item = Item(key, value, float(index))
        events.append(StreamEvent(time=float(index), item=item))
    return events


def run_engine(model, events, mode: str, **config_kwargs):
    engine = OnlineClassificationEngine(
        model, SPEC, EngineConfig(mode=mode, **config_kwargs)
    )
    for event in events:
        engine.offer(event)
    engine.flush()
    return engine


def assert_decisions_match(incremental, full):
    assert set(incremental.decisions) == set(full.decisions)
    for key, expected in full.decisions.items():
        actual = incremental.decisions[key]
        assert actual.predicted == expected.predicted, key
        assert actual.confidence == pytest.approx(expected.confidence, abs=TOLERANCE), key
        assert actual.observations == expected.observations, key
        assert actual.decision_time == expected.decision_time, key
        assert actual.halted_by_policy == expected.halted_by_policy, key
        assert actual.window_truncated == expected.window_truncated, key


class TestIncrementalParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_eviction_stream(self, seed):
        """Window larger than the stream: pure append-only regime."""
        model = make_model(seed=seed)
        events = random_stream(48, num_keys=5, seed=seed + 100)
        incremental = run_engine(model, events, "incremental", window_items=128)
        full = run_engine(model, events, "full", window_items=128)
        assert incremental._incremental is not None
        assert full._incremental is None
        assert_decisions_match(incremental, full)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stream_with_evictions(self, seed):
        """Window much smaller than the stream: rebuilds on every slide."""
        model = make_model(seed=seed)
        events = random_stream(90, num_keys=6, seed=seed + 200)
        incremental = run_engine(model, events, "incremental", window_items=24)
        full = run_engine(model, events, "full", window_items=24)
        assert len(incremental.window) < len(events)
        assert_decisions_match(incremental, full)

    def test_reencode_every_respected(self):
        """Sparse evaluation: decisions only emitted on due arrivals."""
        model = make_model(seed=7)
        events = random_stream(60, num_keys=4, seed=11)
        incremental = run_engine(
            model, events, "incremental", window_items=32, reencode_every=5
        )
        full = run_engine(model, events, "full", window_items=32, reencode_every=5)
        assert_decisions_match(incremental, full)

    @pytest.mark.parametrize("fusion", ["gated", "mean", "last"])
    def test_all_fusion_kinds(self, fusion):
        model = make_model(fusion=fusion, seed=5)
        events = random_stream(60, num_keys=5, seed=23)
        incremental = run_engine(model, events, "incremental", window_items=24)
        full = run_engine(model, events, "full", window_items=24)
        assert_decisions_match(incremental, full)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flush_interleaved(self, seed):
        """Flushes interleaved with arrivals must force-decide the same keys
        from the same representations in both modes — including when the
        incremental cache is dirty at flush time, and after a flush leaves
        every window key decided and cache maintenance suspends."""
        model = make_model(seed=seed)
        events = random_stream(60, num_keys=12, seed=seed + 700)
        engines = {
            mode: OnlineClassificationEngine(
                model, SPEC, EngineConfig(mode=mode, window_items=20, reencode_every=3)
            )
            for mode in ("incremental", "full")
        }
        forced = 0
        for position, event in enumerate(events):
            flushed = {}
            for mode, engine in engines.items():
                engine.offer(event)
                if position % 10 == 9:
                    flushed[mode] = [d.key for d in engine.flush()]
            if flushed:
                assert flushed["incremental"] == flushed["full"], position
                forced += len(flushed["full"])
        for engine in engines.values():
            engine.flush()
        assert forced > 0
        assert_decisions_match(engines["incremental"], engines["full"])

    def test_lazy_rebuild_after_all_keys_decided(self):
        """Maintenance suspends once every window key is decided; a late new
        key must trigger a lazy rebuild and still match the reference."""
        model = make_model(seed=8)
        events = random_stream(200, num_keys=8, seed=61)
        events = events + [
            StreamEvent(time=200.0 + i, item=Item("late", (1, i % 2), 200.0 + i))
            for i in range(30)
        ]
        incremental = run_engine(model, events, "incremental", window_items=64)
        full = run_engine(model, events, "full", window_items=64)
        assert "late" in full.decisions
        assert_decisions_match(incremental, full)

    def test_flush_skips_key_evicted_during_suspension(self):
        """A key fully evicted while cache maintenance was suspended must not
        be flush-decided from its stale representation (full mode, whose
        flush tangle no longer contains the key, emits nothing for it)."""
        model = make_model(seed=1)
        events = [StreamEvent(0.0, Item("A", (0, 0), 0.0))] + [
            StreamEvent(1.0 + i, Item("B", (int(i % 8), i % 2), 1.0 + i))
            for i in range(20)
        ]
        incremental = run_engine(model, events, "incremental", window_items=6)
        full = run_engine(model, events, "full", window_items=6)
        # The scenario only bites if A stayed undecided while B was decided
        # and A's item left the window; seed 1 produces exactly that.
        assert "B" in full.decisions
        assert "A" not in full.decisions
        assert_decisions_match(incremental, full)

    @pytest.mark.parametrize("seed", range(8))
    def test_suspension_with_sparse_evaluations(self, seed):
        """Tiny window + sparse evaluations + aggressive halting: rows cached
        before a maintenance suspension must not survive as stale halting
        candidates once their items leave the window."""
        model = make_model(seed=seed)
        events = random_stream(40, num_keys=3, seed=seed + 300)
        config = dict(window_items=2, reencode_every=3, halt_threshold=0.1)
        incremental = run_engine(model, events, "incremental", **config)
        full = run_engine(model, events, "full", **config)
        assert_decisions_match(incremental, full)

    def test_decision_stream_identical_per_arrival(self):
        """Decisions must fire on the same arrival in both modes."""
        model = make_model(seed=9)
        events = random_stream(70, num_keys=5, seed=31)
        inc_engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="incremental", window_items=28)
        )
        full_engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="full", window_items=28)
        )
        for event in events:
            inc_decided = [d.key for d in inc_engine.offer(event)]
            full_decided = [d.key for d in full_engine.offer(event)]
            assert inc_decided == full_decided, event.time
        assert [d.key for d in inc_engine.flush()] == [d.key for d in full_engine.flush()]


class TestCacheInvalidation:
    def test_cache_rebuilt_after_eviction(self):
        """Property: after any eviction the cache mirrors the window exactly.

        ``halt_threshold=1.0`` keeps every key pending so cache maintenance is
        never suspended (with no undecided keys the engine intentionally lets
        the cache go stale and rebuilds lazily).
        """
        model = make_model(seed=1)
        engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="incremental", window_items=16, halt_threshold=1.0)
        )
        events = random_stream(40, num_keys=4, seed=41)
        for event in events:
            engine.offer(event)
            state = engine._incremental
            window_items = engine.window.items
            assert len(state) == len(window_items)
            assert [state.row_key(i) for i in range(len(state))] == [
                item.key for item in window_items
            ]

    def test_rebuilt_cache_matches_fresh_encode(self):
        """After evictions, cached K/V must equal a from-scratch re-encode."""
        model = make_model(seed=2)
        engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="incremental", window_items=12, halt_threshold=1.0)
        )
        events = random_stream(30, num_keys=3, seed=43)
        for event in events:
            engine.offer(event)
        assert len(engine.window) < len(events)

        fresh = model.make_incremental_state(capacity=12)
        fresh.rebuild(engine.window.items)
        state = engine._incremental
        for block_index in range(len(model.encoder.blocks)):
            cached_k, cached_v = state.kv_cache_view(block_index)
            fresh_k, fresh_v = fresh.kv_cache_view(block_index)
            np.testing.assert_allclose(cached_k, fresh_k, atol=TOLERANCE)
            np.testing.assert_allclose(cached_v, fresh_v, atol=TOLERANCE)
        for index in range(len(state)):
            np.testing.assert_allclose(
                state.fused_row(index), fresh.fused_row(index), atol=TOLERANCE
            )

    def test_append_matches_batched_encode(self):
        """Row-by-row appends must reproduce the batched no-grad encode."""
        model = make_model(seed=4)
        events = random_stream(25, num_keys=4, seed=47)
        streamed = model.make_incremental_state(capacity=32)
        for event in events:
            streamed.append(event.item)
        batched = model.make_incremental_state(capacity=32)
        batched.rebuild([event.item for event in events])
        for index in range(len(streamed)):
            np.testing.assert_allclose(
                streamed.fused_row(index), batched.fused_row(index), atol=TOLERANCE
            )
        for block_index in range(len(model.encoder.blocks)):
            streamed_k, _ = streamed.kv_cache_view(block_index)
            batched_k, _ = batched.kv_cache_view(block_index)
            np.testing.assert_allclose(streamed_k, batched_k, atol=TOLERANCE)

    def test_cache_grows_past_initial_capacity(self):
        model = make_model(seed=6)
        state = model.make_incremental_state(capacity=4)
        events = random_stream(19, num_keys=3, seed=53)
        for event in events:
            state.append(event.item)
        assert len(state) == 19
        assert state.capacity >= 19
        batched = model.make_incremental_state(capacity=32)
        batched.rebuild([event.item for event in events])
        np.testing.assert_allclose(
            state.fused_row(18), batched.fused_row(18), atol=TOLERANCE
        )


class TestFastPathParity:
    def test_predict_tangle_fast_matches_reference(self, trained_tiny_kvec):
        """The raw-numpy inference path must reproduce the autograd route:
        the lockstep runner in greedy mode, without a graph."""
        model = trained_tiny_kvec["model"]
        for tangle in trained_tiny_kvec["splits"]["test"]:
            fast = {r.key: r for r in model.predict_tangle(tangle)}
            with no_grad():
                results, _ = model.run_episodes([tangle], mode="greedy")
            slow = {r.key: r for r in results[0].records()}
            assert set(fast) == set(slow)
            for key, reference in slow.items():
                record = fast[key]
                assert record.predicted == reference.predicted
                assert record.confidence == pytest.approx(reference.confidence, abs=TOLERANCE)
                assert record.halt_observation == reference.halt_observation
                assert record.halted_by_policy == reference.halted_by_policy
                assert record.sequence_length == reference.sequence_length

"""Randomized streaming property/parity suite for the online engine.

Every case replays one seeded random stream through ``mode="incremental"``
and ``mode="full"`` engines *in lockstep* — same arrivals, same final
``flush()`` — and asserts decision-exact parity: the same keys decided on
the same arrival, with the same predicted label, confidence, observation
count, decision time and decision kind.  Scenarios are drawn to force every
regime the engine supports: window evictions (tiny windows vs long
streams), sparse evaluation (``reencode_every > 1``), cache-maintenance
suspension (all window keys decided), interleaved key arrivals and both
encoding schemes (``absolute`` and the eviction-stable ``rotary``).

The rotary scheme additionally carries the tentpole guarantee of the
eviction-stable encodings: **no batched cache rebuild, ever** — evictions
are O(1) ring drops (asserted by counting rebuilds) — while decisions stay
exact w.r.t. the banded full-history reference.

The default run keeps a few dozen seeded cases; ``pytest -m stress`` unlocks
the long fuzz sweep (deselected by default in ``pytest.ini``).
"""

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.serving.engine import EngineConfig, OnlineClassificationEngine

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

TOLERANCE = 1e-9

ENCODINGS = ("absolute", "rotary")


def make_model(encoding: str, fusion: str = "gated", seed: int = 0, **overrides) -> KVEC:
    config = KVECConfig(
        d_model=12,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=20,
        d_state=16,
        dropout=0.0,
        encoding=encoding,
        fusion=fusion,
        seed=seed,
        **overrides,
    )
    return KVEC(SPEC, num_classes=3, config=config)


def random_stream(rng: np.random.Generator, num_items: int, num_keys: int):
    """A random tangled stream, one arrival per time unit."""
    events = []
    clock = 0.0
    for _ in range(num_items):
        clock += 1.0
        key = f"k{rng.integers(num_keys)}"
        value = (int(rng.integers(8)), int(rng.integers(2)))
        events.append(StreamEvent(time=clock, item=Item(key, value, clock)))
    return events


def evicted_items(engine) -> int:
    """Items the engine's window has dropped: arrivals minus items held."""
    return sum(engine.observations.values()) - len(engine.window)


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


def run_lockstep_case(seed: int, encoding: str):
    """One fuzz case: random scenario, lockstep replay, full parity checks."""
    rng = np.random.default_rng(seed)
    fusion = ("gated", "mean", "last")[int(rng.integers(3))]
    model = make_model(encoding, fusion=fusion, seed=int(rng.integers(1 << 16)))
    num_items = int(rng.integers(30, 80))
    num_keys = int(rng.integers(2, 7))
    config_kwargs = dict(
        window_items=int(rng.integers(3, 41)),
        reencode_every=int(rng.integers(1, 6)),
        halt_threshold=float(rng.choice([0.2, 0.4, 0.5, 0.7, 0.9])),
    )
    events = random_stream(rng, num_items, num_keys)

    engines = {
        mode: OnlineClassificationEngine(model, SPEC, EngineConfig(mode=mode, **config_kwargs))
        for mode in ("incremental", "full")
    }
    for position, event in enumerate(events):
        emitted = {mode: [d.key for d in engine.offer(event)] for mode, engine in engines.items()}
        assert emitted["incremental"] == emitted["full"], (seed, position)
    flushed = {mode: [d.key for d in engine.flush()] for mode, engine in engines.items()}
    assert flushed["incremental"] == flushed["full"], seed
    assert_decisions_match(engines["incremental"], engines["full"])
    return engines


class TestRandomizedStreamParity:
    """Seeded fuzz: incremental must equal full under both encodings."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("seed", range(14))
    def test_lockstep_parity(self, seed, encoding):
        run_lockstep_case(seed, encoding)

    @pytest.mark.stress
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("seed", range(100, 120))
    def test_lockstep_parity_stress(self, seed, encoding):
        run_lockstep_case(seed, encoding)


class TestEvictionStableRing:
    """Tentpole guarantees of the rotary ring buffer."""

    @pytest.mark.parametrize("seed", range(4))
    def test_no_rebuild_despite_evictions(self, seed):
        """O(W·d) steady state: evictions never trigger a batched rebuild."""
        engines = run_lockstep_case(seed + 1000, "rotary")
        state = engines["incremental"]._incremental
        assert state.evictions == evicted_items(engines["incremental"])
        assert state.rebuilds == 0

    def test_absolute_scheme_still_rebuilds(self):
        """Control: the legacy scheme rebuilds after evictions (and must say
        so in its counter), so the rotary zero above is meaningful."""
        rng = np.random.default_rng(3)
        model = make_model("absolute", seed=5)
        engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="incremental", window_items=8, halt_threshold=1.0)
        )
        for event in random_stream(rng, 40, 3):
            engine.offer(event)
        assert evicted_items(engine) > 0
        assert engine._incremental.rebuilds > 0

    def test_ring_mirrors_window_under_saturation(self):
        """Property: after every arrival the ring rows equal the window items
        (same length, same key order), with zero rebuilds."""
        rng = np.random.default_rng(11)
        model = make_model("rotary", seed=2)
        engine = OnlineClassificationEngine(
            model, SPEC, EngineConfig(mode="incremental", window_items=10, halt_threshold=1.0)
        )
        for event in random_stream(rng, 50, 4):
            engine.offer(event)
            state = engine._incremental
            window_items = engine.window.items
            assert len(state) == len(window_items)
            assert [state.row_key(i) for i in range(len(state))] == [
                item.key for item in window_items
            ]
        assert evicted_items(engine) > 0
        assert engine._incremental.rebuilds == 0

    def test_frozen_rows_survive_eviction_bit_for_bit(self):
        """A cached row's fused representation must be untouched by later
        evictions (the frozen-at-arrival invariant the ring relies on)."""
        rng = np.random.default_rng(13)
        model = make_model("rotary", seed=4)
        state = model.make_incremental_state(capacity=6)
        events = random_stream(rng, 18, 3)
        snapshots = {}
        for position, event in enumerate(events):
            if len(state) == 6:
                state.evict_oldest()
            state.append(event.item)
            snapshots[position] = [row.copy() for row in state.fused_rows]
        # Every row still in the ring must equal the value it had on arrival.
        final_rows = state.fused_rows
        base = len(events) - len(final_rows)
        for offset, row in enumerate(final_rows):
            arrival = base + offset
            arrival_snapshot = snapshots[arrival][-1]
            np.testing.assert_array_equal(row, arrival_snapshot)

    def test_wrap_is_invisible(self):
        """Rings of capacity C and 4C fed one append/evict sequence give the
        same fused rows: slot order (the rings wrap at different arrivals)
        and the dead slots that runs of consecutive evictions leave behind
        change nothing beyond summation-order noise."""
        rng = np.random.default_rng(31)
        model = make_model("rotary", seed=7)
        capacity = 6
        small = model.make_incremental_state(capacity=capacity)
        large = model.make_incremental_state(capacity=4 * capacity)
        runs = 0
        for event in random_stream(rng, 90, 4):
            if len(small) > 1 and rng.random() < 0.15:
                evictions = int(rng.integers(2, len(small) + 1))
                runs += 1
            else:
                evictions = int(len(small) == capacity)
            for _ in range(evictions):
                assert small.evict_oldest() == large.evict_oldest()
            np.testing.assert_allclose(
                small.append(event.item), large.append(event.item), rtol=0, atol=TOLERANCE
            )
        assert runs > 0
        assert small.capacity == capacity and large.capacity == 4 * capacity
        assert small.evictions == large.evictions >= 90 - capacity
        for small_row, large_row in zip(small.fused_rows, large.fused_rows):
            np.testing.assert_allclose(small_row, large_row, rtol=0, atol=TOLERANCE)

    def test_flush_decides_fully_evicted_key_under_rotary(self):
        """Rotary fusion states survive eviction: a key whose items all left
        the window is still flush-decided, matching the full-history
        reference (the absolute scheme intentionally drops it instead)."""
        model = make_model("rotary", seed=1)
        events = [StreamEvent(0.0, Item("A", (0, 0), 0.0))] + [
            StreamEvent(1.0 + i, Item("B", (int(i % 8), i % 2), 1.0 + i)) for i in range(20)
        ]
        config = dict(window_items=6, halt_threshold=1.0)
        engines = {}
        for mode in ("incremental", "full"):
            engine = OnlineClassificationEngine(model, SPEC, EngineConfig(mode=mode, **config))
            for event in events:
                engine.offer(event)
            engine.flush()
            engines[mode] = engine
        assert "A" in engines["full"].decisions  # the reference retains history
        assert_decisions_match(engines["incremental"], engines["full"])

    @pytest.mark.parametrize("fusion", ["gated", "mean", "last"])
    def test_all_fusion_kinds_rotary(self, fusion):
        rng = np.random.default_rng(17)
        model = make_model("rotary", fusion=fusion, seed=5)
        events = random_stream(rng, 60, 5)
        engines = {}
        for mode in ("incremental", "full"):
            engine = OnlineClassificationEngine(
                model, SPEC, EngineConfig(mode=mode, window_items=20)
            )
            for event in events:
                engine.offer(event)
            engine.flush()
            engines[mode] = engine
        assert evicted_items(engines["incremental"]) > 0
        assert_decisions_match(engines["incremental"], engines["full"])

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(use_time_embeddings=False),
            dict(use_membership_embedding=False),
            dict(use_key_correlation=False),
            dict(use_value_correlation=False),
        ],
    )
    def test_rotary_parity_under_ablations(self, overrides):
        """The Fig. 9 ablation switches must not break ring exactness."""
        rng = np.random.default_rng(19)
        model = make_model("rotary", seed=6, **overrides)
        events = random_stream(rng, 50, 4)
        engines = {}
        for mode in ("incremental", "full"):
            engine = OnlineClassificationEngine(
                model, SPEC, EngineConfig(mode=mode, window_items=12)
            )
            for event in events:
                engine.offer(event)
            engine.flush()
            engines[mode] = engine
        assert_decisions_match(engines["incremental"], engines["full"])


class TestConstructionValidation:
    """Fail-fast contracts introduced with the eviction-stable encodings."""

    def test_absolute_window_beyond_max_time_rejected(self):
        model = make_model("absolute", max_time=32)
        with pytest.raises(ValueError, match="max_time"):
            OnlineClassificationEngine(model, SPEC, EngineConfig(window_items=33))

    def test_absolute_window_at_max_time_accepted(self):
        model = make_model("absolute", max_time=32)
        engine = OnlineClassificationEngine(model, SPEC, EngineConfig(window_items=32))
        assert engine._incremental is not None

    def test_rotary_window_beyond_max_time_accepted(self):
        """Rotary positions are unbounded; max_time does not cap the window."""
        model = make_model("rotary", max_time=32)
        engine = OnlineClassificationEngine(model, SPEC, EngineConfig(window_items=64))
        assert engine._incremental is not None

    def test_incremental_state_grow_rejects_absolute_overflow(self):
        model = make_model("absolute", max_time=16)
        state = model.make_incremental_state(capacity=8)
        rng = np.random.default_rng(23)
        events = random_stream(rng, 16, 2)
        for event in events:
            state.append(event.item)
        with pytest.raises(ValueError, match="max_time"):
            state.append(Item("k0", (0, 0), 99.0))

    def test_incremental_state_construction_rejects_absolute_overflow(self):
        model = make_model("absolute", max_time=16)
        with pytest.raises(ValueError, match="max_time"):
            model.make_incremental_state(capacity=17)

    def test_rotary_state_grows_past_max_time(self):
        model = make_model("rotary", max_time=16)
        state = model.make_incremental_state(capacity=8)
        rng = np.random.default_rng(29)
        for event in random_stream(rng, 24, 2):
            state.append(event.item)
        assert len(state) == 24

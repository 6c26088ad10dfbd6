"""Tests for the streaming views (replay, merge, sliding window)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data
import repro.data.stream
from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.data.stream import SlidingWindow, StreamEvent, merge_streams, replay
from repro.data.tangle import interleave_sequences

SPEC = ValueSpec(("v", "d"), (4, 2), 1)


def make_sequence(key, length, label=0, start=0.0):
    items = [Item(key, (i % 4, i % 2), start + float(i)) for i in range(length)]
    return KeyValueSequence(key, items, label)


def make_tangle(lengths, labels=None):
    sequences = [
        make_sequence(f"k{i}", length, label=(labels or {}).get(f"k{i}", 0))
        for i, length in enumerate(lengths)
    ]
    return interleave_sequences(sequences, SPEC)


class TestReplay:
    def test_replay_preserves_order_and_count(self):
        tangle = make_tangle([4, 3])
        events = list(replay(tangle))
        assert len(events) == 7
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_event_exposes_key(self):
        tangle = make_tangle([2])
        event = next(iter(replay(tangle)))
        assert event.key == "k0"

    def test_source_defaults_to_tangle_name(self):
        tangle = make_tangle([2])
        tangle.name = "scenario-7"
        assert next(iter(replay(tangle))).source == "scenario-7"


class TestMergeStreams:
    def test_merged_stream_is_chronological(self):
        first = replay(make_tangle([5]))
        second = replay(interleave_sequences([make_sequence("z", 5, start=0.5)], SPEC))
        merged = list(merge_streams([first, second]))
        assert len(merged) == 10
        times = [event.time for event in merged]
        assert times == sorted(times)

    def test_unordered_input_rejected(self):
        events = [
            StreamEvent(1.0, Item("a", (0, 0), 1.0)),
            StreamEvent(0.5, Item("a", (0, 0), 0.5)),
        ]
        with pytest.raises(ValueError):
            list(merge_streams([events]))

    def test_empty_streams(self):
        assert list(merge_streams([[], []])) == []


class TestSlidingWindow:
    def test_count_based_eviction(self):
        window = SlidingWindow(max_items=3)
        evicted_total = []
        for i in range(5):
            evicted_total.extend(window.push(Item("a", (0, 0), float(i))))
        assert len(window) == 3
        assert [item.time for item in evicted_total] == [0.0, 1.0]
        assert [item.time for item in window] == [2.0, 3.0, 4.0]

    def test_out_of_order_push_rejected(self):
        window = SlidingWindow(max_items=4)
        window.push(Item("a", (0, 0), 3.0))
        with pytest.raises(ValueError):
            window.push(Item("a", (0, 0), 1.0))

    def test_requires_a_bound(self):
        with pytest.raises(TypeError):
            SlidingWindow()
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_items must be positive"):
                SlidingWindow(max_items=bound)

    def test_as_tangle_labels_every_key_zero(self):
        window = SlidingWindow(max_items=10)
        window.push(Item("a", (1, 0), 0.0))
        window.push(Item("b", (2, 1), 1.0))
        tangle = window.as_tangle(SPEC, name="w")
        assert [item.key for item in tangle.items] == ["a", "b"]
        assert tangle.label_of("a") == tangle.label_of("b") == 0
        assert tangle.name == "w"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=40), st.integers(1, 8))
    def test_window_never_exceeds_bound(self, gaps, bound):
        window = SlidingWindow(max_items=bound)
        time = 0.0
        evicted = 0
        for gap in gaps:
            time += gap
            evicted += len(window.push(Item("k", (0, 0), time)))
            assert len(window) <= bound
        assert evicted == max(0, len(gaps) - bound)


def test_no_key_tracker():
    """A serving session counts each key's observations in a plain dict;
    the tracker and its per-key state records are gone from the package."""
    for name in ("KeyTracker", "KeyState"):
        assert not hasattr(repro.data.stream, name)
        assert not hasattr(repro.data, name)
        assert name not in repro.data.__all__

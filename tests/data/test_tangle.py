"""Tests for interleaving per-key sequences into tangled streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.data.tangle import interleave_sequences, retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from tests.data.tangle_oracle import two_pass_interleave, two_pass_retangle

SPEC = ValueSpec(("v", "d"), (4, 2), 1)


def make_sequence(key, length, label=0, rng=None):
    rng = rng or np.random.default_rng(hash(key) % 2**32)
    items = [
        Item(key, (int(rng.integers(0, 4)), int(rng.integers(0, 2))), float(i))
        for i in range(length)
    ]
    return KeyValueSequence(key, items, label)


class TestInterleave:
    def test_merges_all_items_chronologically(self):
        tangle = interleave_sequences([make_sequence("a", 5), make_sequence("b", 3)], SPEC)
        assert len(tangle) == 8
        times = [item.time for item in tangle]
        assert times == sorted(times)

    def test_labels_preserved(self):
        tangle = interleave_sequences(
            [make_sequence("a", 2, label=1), make_sequence("b", 2, label=0)], SPEC
        )
        assert tangle.label_of("a") == 1
        assert tangle.label_of("b") == 0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            interleave_sequences([make_sequence("a", 2), make_sequence("a", 3)], SPEC)

    def test_unlabelled_sequence_rejected(self):
        sequence = make_sequence("a", 2)
        sequence.label = None
        with pytest.raises(ValueError):
            interleave_sequences([sequence], SPEC)

    def test_jitter_preserves_item_count(self):
        tangle = interleave_sequences(
            [make_sequence("a", 4), make_sequence("b", 4)],
            SPEC,
            rng=np.random.default_rng(0),
            jitter=0.5,
        )
        assert len(tangle) == 8

    @pytest.mark.parametrize("jitter", [-1.0, float("nan")])
    def test_bad_jitter_rejected(self, jitter):
        with pytest.raises(ValueError):
            interleave_sequences(
                [make_sequence("a", 2)], SPEC, rng=np.random.default_rng(0), jitter=jitter
            )


class TestRetangleByConcurrency:
    def test_groups_have_requested_concurrency(self):
        sequences = [make_sequence(f"k{i}", 5) for i in range(10)]
        tangles = retangle_by_concurrency(sequences, SPEC, concurrency=3, rng=np.random.default_rng(0))
        sizes = sorted(tangle.num_keys for tangle in tangles)
        assert sizes == [1, 3, 3, 3]

    def test_every_sequence_appears_exactly_once(self):
        sequences = [make_sequence(f"k{i}", 4) for i in range(9)]
        tangles = retangle_by_concurrency(sequences, SPEC, concurrency=4, rng=np.random.default_rng(1))
        seen = [key for tangle in tangles for key in tangle.keys]
        assert sorted(seen) == sorted(f"k{i}" for i in range(9))

    def test_item_counts_preserved(self):
        sequences = [make_sequence(f"k{i}", 3 + i) for i in range(6)]
        tangles = retangle_by_concurrency(sequences, SPEC, concurrency=2, rng=np.random.default_rng(2))
        assert sum(len(t) for t in tangles) == sum(len(s) for s in sequences)

    def test_sequences_in_a_chunk_overlap_in_time(self):
        # Shift one sequence far into the future: retangle must re-base times
        # so the chunk overlaps rather than concatenates.
        late_items = [Item("late", (0, 0), 1000.0 + i) for i in range(5)]
        sequences = [
            make_sequence("early", 5),
            KeyValueSequence("late", late_items, 0),
        ]
        tangles = retangle_by_concurrency(sequences, SPEC, concurrency=2, rng=np.random.default_rng(0))
        assert len(tangles) == 1
        tangle = tangles[0]
        first_keys = {tangle[i].key for i in range(4)}
        assert len(first_keys) == 2  # items of both sequences appear early

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            retangle_by_concurrency([make_sequence("a", 2)], SPEC, concurrency=0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_number_of_tangles_matches_ceiling_division(self, concurrency, num_sequences):
        sequences = [make_sequence(f"k{i}", 3) for i in range(num_sequences)]
        tangles = retangle_by_concurrency(
            sequences, SPEC, concurrency=concurrency, rng=np.random.default_rng(0)
        )
        expected = -(-num_sequences // concurrency)
        assert len(tangles) == expected


def tangle_record(tangle) -> str:
    """Name, labels and every item's key, value and time, exact to the bit."""
    return repr((tangle.name, tangle.labels, [(i.key, i.value, i.time) for i in tangle.items]))


class TestOnePassEqualsTwoPass:
    """The one-pass tangling equals the two-pass oracle it replaced, draws included."""

    @pytest.fixture(scope="class")
    def flows(self):
        dataset = make_ustc_tfc2016(num_flows=45, seed=4)
        empty = [KeyValueSequence(f"empty-{i}", [], label=0) for i in range(3)]
        return dataset.spec, dataset.sequences[:20] + empty + dataset.sequences[20:]

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_retangle_equals_two_pass(self, flows, concurrency):
        spec, sequences = flows
        ours, theirs = np.random.default_rng(concurrency), np.random.default_rng(concurrency)
        got = retangle_by_concurrency(sequences, spec, concurrency, rng=ours, name_prefix="t")
        want = two_pass_retangle(sequences, spec, concurrency, rng=theirs, name_prefix="t")
        assert [tangle_record(t) for t in got] == [tangle_record(t) for t in want]
        assert ours.random(4).tolist() == theirs.random(4).tolist()

    @pytest.mark.parametrize("jitter", [0.0, 1e-6])
    def test_interleave_equals_two_pass(self, flows, jitter):
        spec, sequences = flows
        chunk = sequences[18:24]
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        got = interleave_sequences(chunk, spec, rng=ours, jitter=jitter, name="mix")
        want = two_pass_interleave(chunk, spec, rng=theirs, jitter=jitter, name="mix")
        assert tangle_record(got) == tangle_record(want)
        assert ours.random(4).tolist() == theirs.random(4).tolist()

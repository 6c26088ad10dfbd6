"""Tests for the core data containers (Item, sequences, tangled sequences)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec


@pytest.fixture
def spec():
    return ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)


class TestValueSpec:
    def test_valid_spec(self, spec):
        assert spec.num_fields == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ValueSpec(("a",), (2, 3), 0)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            ValueSpec((), (), 0)

    def test_session_field_out_of_range(self):
        with pytest.raises(ValueError):
            ValueSpec(("a",), (2,), 1)

    def test_non_positive_cardinality(self):
        with pytest.raises(ValueError):
            ValueSpec(("a",), (0,), 0)

    def test_validate_value_accepts_in_range(self, spec):
        spec.validate_value((7, 1))

    def test_validate_value_rejects_wrong_arity(self, spec):
        with pytest.raises(ValueError):
            spec.validate_value((1,))

    def test_validate_value_rejects_out_of_range(self, spec):
        with pytest.raises(ValueError):
            spec.validate_value((8, 0))


class TestKeyValueSequence:
    def test_items_sorted_by_time(self):
        sequence = KeyValueSequence(
            "k",
            [Item("k", (0, 0), 5.0), Item("k", (1, 0), 1.0)],
            label=0,
        )
        assert [item.time for item in sequence] == [1.0, 5.0]

    def test_wrong_key_rejected_on_construction(self):
        with pytest.raises(ValueError):
            KeyValueSequence("k", [Item("other", (0, 0), 0.0)])

    def test_append_enforces_key_and_order(self):
        sequence = KeyValueSequence("k", [Item("k", (0, 0), 1.0)], label=0)
        with pytest.raises(ValueError):
            sequence.append(Item("x", (0, 0), 2.0))
        with pytest.raises(ValueError):
            sequence.append(Item("k", (0, 0), 0.5))
        sequence.append(Item("k", (1, 1), 2.0))
        assert len(sequence) == 2

    def test_prefix_returns_copy(self):
        sequence = KeyValueSequence(
            "k", [Item("k", (i, 0), float(i)) for i in range(5)], label=3
        )
        prefix = sequence.prefix(2)
        assert len(prefix) == 2
        assert prefix.label == 3
        assert len(sequence) == 5

    def test_indexing_and_iteration(self):
        sequence = KeyValueSequence("k", [Item("k", (i, 0), float(i)) for i in range(3)])
        assert sequence[1].value == (1, 0)
        assert [item.field(0) for item in sequence] == [0, 1, 2]


class TestTangledSequence:
    def make_tangle(self, spec):
        items = [
            Item("a", (0, 0), 0.0),
            Item("b", (1, 1), 1.0),
            Item("a", (2, 0), 2.0),
            Item("b", (3, 1), 3.0),
            Item("a", (4, 1), 4.0),
        ]
        return TangledSequence(items, labels={"a": 0, "b": 1}, spec=spec)

    def test_positions_within_key_sequences(self, spec):
        tangle = self.make_tangle(spec)
        assert [tangle.position_in_key_sequence(i) for i in range(5)] == [0, 0, 1, 1, 2]

    def test_key_order_by_first_appearance(self, spec):
        tangle = self.make_tangle(spec)
        assert tangle.keys == ["a", "b"]
        assert tangle.key_index("b") == 1
        assert tangle.num_keys == 2

    def test_sequence_lengths_and_labels(self, spec):
        tangle = self.make_tangle(spec)
        assert tangle.sequence_length("a") == 3
        assert tangle.sequence_length("b") == 2
        assert tangle.label_of("b") == 1

    def test_missing_label_rejected(self, spec):
        with pytest.raises(ValueError):
            TangledSequence([Item("a", (0, 0), 0.0)], labels={}, spec=spec)

    def test_invalid_value_rejected(self, spec):
        with pytest.raises(ValueError):
            TangledSequence([Item("a", (9, 0), 0.0)], labels={"a": 0}, spec=spec)

    def test_items_sorted_chronologically(self, spec):
        items = [Item("a", (0, 0), 3.0), Item("a", (1, 0), 1.0)]
        tangle = TangledSequence(items, labels={"a": 0}, spec=spec)
        assert [item.time for item in tangle] == [1.0, 3.0]

    def test_per_key_sequences_partition_items(self, spec):
        tangle = self.make_tangle(spec)
        per_key = tangle.per_key_sequences()
        assert set(per_key) == {"a", "b"}
        assert sum(len(sequence) for sequence in per_key.values()) == len(tangle)
        assert per_key["a"].label == 0

    def test_prefix_restricts_items_and_labels(self, spec):
        tangle = self.make_tangle(spec)
        prefix = tangle.prefix(1)
        assert len(prefix) == 1
        assert prefix.keys == ["a"]

    def test_prefix_length_caps_at_the_end(self, spec):
        tangle = self.make_tangle(spec)
        assert [tangle.prefix_length(n) for n in (None, 0, 1, 99)] == [len(tangle), 0, 1, len(tangle)]

    def test_validate_passes_on_well_formed(self, spec):
        self.make_tangle(spec).validate()

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_positions_are_contiguous_per_key(self, num_items):
        spec = ValueSpec(("v",), (4,), 0)
        rng = np.random.default_rng(num_items)
        items = [
            Item(f"k{rng.integers(0, 3)}", (int(rng.integers(0, 4)),), float(i))
            for i in range(num_items)
        ]
        labels = {f"k{j}": 0 for j in range(3)}
        labels = {key: labels.get(key, 0) for key in {item.key for item in items}}
        tangle = TangledSequence(items, labels=labels, spec=spec)
        seen = {}
        for index in range(len(tangle)):
            key = tangle[index].key
            expected = seen.get(key, 0)
            assert tangle.position_in_key_sequence(index) == expected
            seen[key] = expected + 1

"""Tests for the per-sequence encoders used by the baselines."""

import numpy as np
import pytest

from repro.baselines.common import one_hot_features, tangles_to_sequences
from repro.baselines.encoders import LSTMSequenceEncoder, SRNEncoder
from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec

SPEC = ValueSpec(("size", "direction"), (8, 2), session_field=1)


def make_sequence(length=10, key="k", seed=0):
    rng = np.random.default_rng(seed)
    items = [
        Item(key, (int(rng.integers(0, 8)), int(rng.integers(0, 2))), float(i))
        for i in range(length)
    ]
    return KeyValueSequence(key, items, label=1)


class TestOneHotFeatures:
    def test_shape_and_rows_sum(self):
        features = one_hot_features(make_sequence(6), SPEC)
        assert features.shape == (6, 10)
        np.testing.assert_allclose(features.sum(axis=1), np.full(6, 2.0))

    def test_encodes_field_values(self):
        sequence = KeyValueSequence("k", [Item("k", (3, 1), 0.0)], label=0)
        features = one_hot_features(sequence, SPEC)
        assert features[0, 3] == 1.0
        assert features[0, 8 + 1] == 1.0


class TestTanglesToSequences:
    def test_flattening_preserves_items_and_labels(self):
        sequences = [make_sequence(5, key="a", seed=1), make_sequence(7, key="b", seed=2)]
        sequences[0].label = 0
        tangle = TangledSequence(
            [item for sequence in sequences for item in sequence],
            {"a": 0, "b": 1},
            SPEC,
        )
        flattened = tangles_to_sequences([tangle])
        assert {sequence.key for sequence in flattened} == {"a", "b"}
        assert sum(len(sequence) for sequence in flattened) == 12
        labels = {sequence.key: sequence.label for sequence in flattened}
        assert labels == {"a": 0, "b": 1}


class TestLSTMSequenceEncoder:
    def test_output_shape(self):
        encoder = LSTMSequenceEncoder(SPEC, d_state=12, rng=np.random.default_rng(0))
        assert encoder(make_sequence(9)).shape == (9, 12)

    def test_prefix_consistency(self):
        encoder = LSTMSequenceEncoder(SPEC, d_state=8, rng=np.random.default_rng(0))
        sequence = make_sequence(10)
        full = encoder(sequence).data
        prefix = encoder(sequence, upto=4).data
        np.testing.assert_allclose(full[:4], prefix, atol=1e-12)

    def test_empty_sequence_rejected(self):
        encoder = LSTMSequenceEncoder(SPEC, d_state=8)
        with pytest.raises(ValueError):
            encoder(KeyValueSequence("k", [], 0))

    def test_upto_caps_at_the_end_and_rejects_negative_lengths(self):
        encoder = LSTMSequenceEncoder(SPEC, d_state=8, rng=np.random.default_rng(0))
        sequence = make_sequence(10)
        np.testing.assert_array_equal(encoder(sequence, upto=99).data, encoder(sequence).data)
        with pytest.raises(ValueError):
            encoder(sequence, upto=-3)


class TestSRNEncoder:
    def test_output_shape(self):
        encoder = SRNEncoder(SPEC, d_model=16, num_blocks=2, rng=np.random.default_rng(0))
        assert encoder(make_sequence(9)).shape == (9, 16)

    def test_causality(self):
        """Per-step representations must not depend on future items."""
        encoder = SRNEncoder(SPEC, d_model=16, num_blocks=2, dropout=0.0, rng=np.random.default_rng(0))
        encoder.eval()
        sequence = make_sequence(10, seed=3)
        full = encoder(sequence).data
        prefix = encoder(sequence, upto=6).data
        np.testing.assert_allclose(full[:6], prefix, atol=1e-9)

    def test_upto_caps_at_the_end_and_rejects_negative_lengths(self):
        encoder = SRNEncoder(SPEC, d_model=16, num_blocks=1, dropout=0.0, rng=np.random.default_rng(0))
        encoder.eval()
        sequence = make_sequence(10)
        np.testing.assert_array_equal(encoder(sequence, upto=99).data, encoder(sequence).data)
        with pytest.raises(ValueError, match="non-negative"):
            encoder(sequence, upto=-3)

    def test_d_state_attribute_used_by_policies(self):
        encoder = SRNEncoder(SPEC, d_model=24, rng=np.random.default_rng(0))
        assert encoder.d_state == 24

    def test_gradients_flow(self):
        encoder = SRNEncoder(SPEC, d_model=16, num_blocks=1, dropout=0.0, rng=np.random.default_rng(0))
        encoder(make_sequence(5)).sum().backward()
        assert encoder.value_embeddings[0].weight.grad is not None
        assert encoder.position_embedding.weight.grad is not None

"""Tests for the KVRL input embedding."""

import numpy as np
import pytest

from repro.core.correlation import TangleColumns
from repro.core.embeddings import InputEmbedding
from repro.data.items import Item, TangledSequence, ValueSpec
from tests.core.input_oracle import reference_coordinates

SPEC = ValueSpec(("size", "direction"), (8, 2), session_field=1)


def gather_embed(embedding, tangle, upto=None):
    """``forward_inference`` of ``tangle[:upto]``: the prefix's column
    table, its coordinates and the table gathers, as the offline encodes
    build them."""
    length = tangle.prefix_length(upto)
    table = TangleColumns([tangle], [length])
    table.extend(length)
    coordinates = embedding.table_coordinates(table, 0, length)
    return embedding.forward_inference(*(column[..., 0, :] for column in coordinates))


def item_loop_embed(embedding, tangle, upto=None):
    """``forward_inference`` as one ``embed_item_inference`` call per item,
    the loop the table gathers replaced, kept as their oracle."""
    length = tangle.prefix_length(upto)
    rows = np.empty((length, embedding.d_model), dtype=np.float64)
    for index in range(length):
        item = tangle[index]
        rows[index] = embedding.embed_item_inference(
            item,
            key_index=tangle.key_index(item.key),
            position=tangle.position_in_key_sequence(index),
            time_index=index,
        )
    return rows


def make_tangle(num_items=6, num_keys=2):
    items = [
        Item(f"k{i % num_keys}", (i % 8, i % 2), float(i)) for i in range(num_items)
    ]
    labels = {f"k{i}": 0 for i in range(num_keys)}
    return TangledSequence(items, labels, SPEC)


class TestInputEmbedding:
    def test_output_shape(self):
        embedding = InputEmbedding(SPEC, d_model=12, rng=np.random.default_rng(0))
        out = embedding(make_tangle(7))
        assert out.shape == (7, 12)

    def test_upto_prefix(self):
        embedding = InputEmbedding(SPEC, d_model=12, rng=np.random.default_rng(0))
        assert embedding(make_tangle(7), upto=3).shape == (3, 12)

    def test_empty_prefix_rejected(self):
        embedding = InputEmbedding(SPEC, d_model=8)
        with pytest.raises(ValueError):
            embedding(make_tangle(3), upto=0)

    def test_prefix_rows_match_full_rows(self):
        """Input embeddings are per-item: the prefix rows equal the full rows."""
        embedding = InputEmbedding(SPEC, d_model=16, rng=np.random.default_rng(0))
        tangle = make_tangle(8)
        full = embedding(tangle).data
        prefix = embedding(tangle, upto=5).data
        np.testing.assert_allclose(full[:5], prefix)

    def test_same_value_items_differ_by_position(self):
        items = [Item("a", (3, 1), 0.0), Item("a", (3, 1), 1.0)]
        tangle = TangledSequence(items, {"a": 0}, SPEC)
        embedding = InputEmbedding(SPEC, d_model=16, rng=np.random.default_rng(0))
        out = embedding(tangle).data
        assert not np.allclose(out[0], out[1])

    def test_disabling_time_embeddings_makes_identical_items_equal(self):
        items = [Item("a", (3, 1), 0.0), Item("a", (3, 1), 1.0)]
        tangle = TangledSequence(items, {"a": 0}, SPEC)
        embedding = InputEmbedding(
            SPEC, d_model=16, use_time_embeddings=False, rng=np.random.default_rng(0)
        )
        out = embedding(tangle).data
        np.testing.assert_allclose(out[0], out[1])

    def test_membership_embedding_distinguishes_keys(self):
        items = [Item("a", (3, 1), 0.0), Item("b", (3, 1), 1.0)]
        tangle = TangledSequence(items, {"a": 0, "b": 0}, SPEC)
        with_membership = InputEmbedding(
            SPEC, d_model=16, use_time_embeddings=False, rng=np.random.default_rng(0)
        )
        without_membership = InputEmbedding(
            SPEC,
            d_model=16,
            use_time_embeddings=False,
            use_membership_embedding=False,
            rng=np.random.default_rng(0),
        )
        assert not np.allclose(with_membership(tangle).data[0], with_membership(tangle).data[1])
        np.testing.assert_allclose(
            without_membership(tangle).data[0], without_membership(tangle).data[1]
        )

    def test_positions_beyond_capacity_are_clamped(self):
        embedding = InputEmbedding(SPEC, d_model=8, max_positions=4, max_time=4, max_keys=2,
                                   rng=np.random.default_rng(0))
        tangle = make_tangle(12, num_keys=3)
        out = embedding(tangle)
        assert out.shape == (12, 8)
        assert np.all(np.isfinite(out.data))

    def test_gradients_reach_all_embedding_tables(self):
        embedding = InputEmbedding(SPEC, d_model=8, rng=np.random.default_rng(0))
        embedding(make_tangle(6)).sum().backward()
        assert embedding.value_embeddings[0].weight.grad is not None
        assert embedding.value_embeddings[1].weight.grad is not None
        assert embedding.membership_embedding.weight.grad is not None
        assert embedding.position_embedding.weight.grad is not None
        assert embedding.time_embedding.weight.grad is not None


class TestForwardInferenceGather:
    """``forward_inference`` gathers table rows over ``table_coordinates()``;
    each row must equal the per-item embed bit for bit, and the coordinates
    must equal the item-by-item walk they replaced."""

    @pytest.mark.parametrize("upto", [None, 9])
    @pytest.mark.parametrize("time", [True, False])
    @pytest.mark.parametrize("membership", [True, False])
    @pytest.mark.parametrize("encoding", ["absolute", "rotary"])
    def test_equals_item_loop(self, encoding, membership, time, upto):
        # 20 items over 3 keys overflow every table: keys past max_keys,
        # positions past max_positions and times past max_time are clamped.
        embedding = InputEmbedding(
            SPEC,
            d_model=12,
            max_positions=4,
            max_keys=2,
            max_time=8,
            use_membership_embedding=membership,
            use_time_embeddings=time,
            encoding=encoding,
            rng=np.random.default_rng(0),
        )
        tangle = make_tangle(20, num_keys=3)
        gathered = gather_embed(embedding, tangle, upto=upto)
        length = tangle.prefix_length(upto)
        assert gathered.shape == (length, 12)
        assert np.array_equal(gathered, item_loop_embed(embedding, tangle, upto=upto))
        assert np.array_equal(gathered, embedding(tangle, upto=upto).data)
        assert np.array_equal(
            gathered, embedding.forward_inference(*reference_coordinates(embedding, tangle, length))
        )

"""Tests for masked (multi-head) self-attention."""

import numpy as np
import pytest

from repro.nn.attention import MASK_VALUE, MultiHeadAttention, causal_mask, scaled_dot_product_attention
from repro.nn.tensor import Tensor


def attend(attention, x, mask=None):
    """One ``(T, d)`` sequence through ``forward_batch`` at B=1."""
    batch_mask = None if mask is None else mask[None]
    return attention.forward_batch(x.reshape(1, *x.shape), mask=batch_mask).reshape(*x.shape)


class TestCausalMask:
    def test_lower_triangle_visible(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert np.all(mask[np.tril_indices(4)] == 0.0)
        assert np.all(mask[np.triu_indices(4, k=1)] == MASK_VALUE)


class TestScaledDotProductAttention:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((5, 8)))
        out, weights = scaled_dot_product_attention(q, q, q)
        assert out.shape == (5, 8)
        np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones(5), atol=1e-9)

    def test_masked_positions_get_zero_weight(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((4, 8)))
        _, weights = scaled_dot_product_attention(q, q, q, mask=causal_mask(4))
        upper = weights.data[np.triu_indices(4, k=1)]
        np.testing.assert_allclose(upper, np.zeros_like(upper), atol=1e-9)


class TestMultiHeadAttention:
    def test_output_shape(self):
        attention = MultiHeadAttention(16, num_heads=4, rng=np.random.default_rng(0))
        out = attention.forward_batch(Tensor(np.random.default_rng(1).standard_normal((3, 6, 16))))
        assert out.shape == (3, 6, 16)

    def test_head_count_must_divide_dimension(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, num_heads=3)

    def test_rejects_non_3d_input(self):
        attention = MultiHeadAttention(8, num_heads=2)
        with pytest.raises(ValueError):
            attention.forward_batch(Tensor(np.zeros((3, 8))))

    @pytest.mark.parametrize("columns", [6, 8])
    def test_rejects_mask_not_covering_cached_plus_new_rows(self, columns):
        """A chunk's mask has one column per cached row plus new row (4 + 3)."""
        attention = MultiHeadAttention(8, num_heads=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 7, 8))
        cache: dict = {}
        attention.forward_batch(Tensor(x[:, :4]), mask=causal_mask(7)[None, :4, :4], cache=cache)
        mask = np.zeros((2, 3, columns))
        match = r"\(2, 3, %d\).*4 cached rows.*\(2, 3, 8\)" % columns
        with pytest.raises(ValueError, match=match):
            attention.forward_batch(Tensor(x[:, 4:]), mask=mask, cache=cache)
        assert cache["key"].shape[2] == 4  # the rejected chunk left the cache as it was

    def test_stores_attention_weights_only_when_requested(self):
        attention = MultiHeadAttention(8, num_heads=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 8))
        attention.forward_inference(x)
        assert attention.last_attention is None
        attention.forward_inference(x, store_attention=True)
        assert attention.last_attention is not None
        assert attention.last_attention.shape == (2, 5, 5)
        attention.forward_inference(x)
        assert attention.last_attention is None

    def test_causal_mask_blocks_future_influence(self):
        """With a causal mask, changing a later item must not change earlier outputs."""
        rng = np.random.default_rng(0)
        attention = MultiHeadAttention(8, num_heads=1, rng=rng)
        attention.eval()
        base = rng.standard_normal((6, 8))
        modified = base.copy()
        modified[5] += 10.0  # perturb only the last item
        mask = causal_mask(6)
        out_base = attend(attention, Tensor(base), mask=mask).data
        out_modified = attend(attention, Tensor(modified), mask=mask).data
        np.testing.assert_allclose(out_base[:5], out_modified[:5], atol=1e-9)
        assert not np.allclose(out_base[5], out_modified[5])

    def test_without_mask_future_does_influence(self):
        rng = np.random.default_rng(0)
        attention = MultiHeadAttention(8, num_heads=1, rng=rng)
        base = rng.standard_normal((6, 8))
        modified = base.copy()
        modified[5] += 10.0
        out_base = attend(attention, Tensor(base)).data
        out_modified = attend(attention, Tensor(modified)).data
        assert not np.allclose(out_base[0], out_modified[0])

    def test_fully_masked_row_attends_only_to_itself(self):
        rng = np.random.default_rng(0)
        attention = MultiHeadAttention(8, num_heads=1, rng=rng)
        mask = np.full((3, 3), MASK_VALUE)
        np.fill_diagonal(mask, 0.0)
        attention.forward_inference(rng.standard_normal((3, 8)), mask=mask, store_attention=True)
        weights = attention.last_attention[0]
        np.testing.assert_allclose(weights, np.eye(3), atol=1e-9)

    def test_gradients_flow_through_attention(self):
        rng = np.random.default_rng(0)
        attention = MultiHeadAttention(8, num_heads=2, rng=rng)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        attend(attention, x, mask=causal_mask(4)).sum().backward()
        assert x.grad is not None
        assert attention.q_proj.weight.grad is not None
        assert attention.out_proj.weight.grad is not None

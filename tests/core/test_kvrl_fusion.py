"""Tests for the KVRL attention encoder and the embedding-fusion modules."""

import numpy as np
import pytest

from repro.core.correlation import build_correlation_structure
from repro.core.fusion import GatedFusion, LastItemFusion, MeanFusion, make_fusion
from repro.core.kvrl import KVRLBlock, KVRLEncoder
from repro.data.items import Item, TangledSequence, ValueSpec
from repro.nn.attention import causal_mask
from repro.nn.tensor import Tensor

SPEC = ValueSpec(("size", "direction"), (8, 2), session_field=1)


def encode(module, x, mask=None):
    """One ``(T, d)`` sequence through ``module.forward_batch`` at B=1."""
    batch_mask = None if mask is None else mask[None]
    return module.forward_batch(x.reshape(1, *x.shape), mask=batch_mask).reshape(*x.shape)


def initial_state(fusion):
    """One stream's initial state row: zeros, for every fusion kind."""
    return Tensor(np.zeros((1, fusion.state_width)))


def fuse(fusion, state, x):
    """One fusion step of one stream through ``step`` at B=1.

    Returns ``(representation, state)``: the ``(d_state,)`` representation
    and the new ``(1, state_width)`` state row.
    """
    states = fusion.step(state, x.reshape(1, -1))
    return fusion.representation(states)[0, : fusion.d_state], states


class TestKVRLEncoder:
    def test_output_shape(self):
        encoder = KVRLEncoder(16, num_blocks=2, num_heads=2, rng=np.random.default_rng(0))
        out = encoder.forward_batch(Tensor(np.random.default_rng(1).standard_normal((3, 7, 16))))
        assert out.shape == (3, 7, 16)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            KVRLEncoder(16, num_blocks=0)

    def test_causality_under_causal_mask(self):
        """Row t of the encoder output must not depend on later rows of the input."""
        encoder = KVRLEncoder(8, num_blocks=2, num_heads=1, dropout=0.0, rng=np.random.default_rng(0))
        encoder.eval()
        base = np.random.default_rng(1).standard_normal((6, 8))
        modified = base.copy()
        modified[4:] += 5.0
        mask = causal_mask(6)
        out_base = encode(encoder, Tensor(base), mask=mask).data
        out_modified = encode(encoder, Tensor(modified), mask=mask).data
        np.testing.assert_allclose(out_base[:4], out_modified[:4], atol=1e-9)

    def test_correlation_mask_blocks_uncorrelated_items(self):
        """With value correlation disabled, another key's items cannot influence a row."""
        items = [
            Item("a", (0, 0), 0.0),
            Item("b", (1, 1), 1.0),
            Item("a", (2, 0), 2.0),
        ]
        tangle = TangledSequence(items, {"a": 0, "b": 0}, SPEC)
        structure = build_correlation_structure(tangle, use_value_correlation=False)

        encoder = KVRLEncoder(8, num_blocks=1, num_heads=1, dropout=0.0, rng=np.random.default_rng(0))
        encoder.eval()
        base = np.random.default_rng(1).standard_normal((3, 8))
        modified = base.copy()
        modified[1] += 10.0  # perturb the (invisible) item of key b
        out_base = encode(encoder, Tensor(base), mask=structure.mask).data
        out_modified = encode(encoder, Tensor(modified), mask=structure.mask).data
        np.testing.assert_allclose(out_base[2], out_modified[2], atol=1e-9)

    def test_attention_maps_collected_per_block(self):
        encoder = KVRLEncoder(8, num_blocks=3, num_heads=2, rng=np.random.default_rng(0))
        encoder.forward_inference(np.random.default_rng(1).standard_normal((5, 8)), store_attention=True)
        maps = encoder.attention_maps()
        assert len(maps) == 3
        assert all(weights.shape == (2, 5, 5) for weights in maps)

    def test_block_gradients_flow(self):
        block = KVRLBlock(8, num_heads=1, ffn_hidden=16, dropout=0.0, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((4, 8)), requires_grad=True)
        encode(block, x, mask=causal_mask(4)).sum().backward()
        assert x.grad is not None


class TestFusion:
    def test_gated_fusion_shapes(self):
        fusion = GatedFusion(d_model=8, d_state=12, rng=np.random.default_rng(0))
        state = initial_state(fusion)
        representation, new_state = fuse(fusion, state, Tensor(np.ones(8)))
        assert representation.shape == (12,)
        assert new_state.shape == (1, 24)
        assert np.array_equal(new_state.data[0, :12], representation.data)

    def test_gated_fusion_state_evolves(self):
        fusion = GatedFusion(d_model=4, d_state=6, rng=np.random.default_rng(0))
        state = initial_state(fusion)
        first, state = fuse(fusion, state, Tensor(np.ones(4)))
        second, state = fuse(fusion, state, Tensor(np.ones(4)))
        assert not np.allclose(first.data, second.data)

    def test_mean_fusion_is_running_mean(self):
        fusion = MeanFusion(d_model=3)
        state = initial_state(fusion)
        first, state = fuse(fusion, state, Tensor(np.array([1.0, 2.0, 3.0])))
        second, state = fuse(fusion, state, Tensor(np.array([3.0, 4.0, 5.0])))
        np.testing.assert_allclose(first.data, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(second.data, [2.0, 3.0, 4.0])

    def test_last_item_fusion_returns_latest(self):
        fusion = LastItemFusion(d_model=3)
        state = initial_state(fusion)
        _, state = fuse(fusion, state, Tensor(np.array([1.0, 1.0, 1.0])))
        latest, _ = fuse(fusion, state, Tensor(np.array([9.0, 9.0, 9.0])))
        np.testing.assert_allclose(latest.data, [9.0, 9.0, 9.0])

    def test_factory_dispatch(self):
        assert isinstance(make_fusion("gated", 4, 6), GatedFusion)
        assert isinstance(make_fusion("mean", 4, 6), MeanFusion)
        assert isinstance(make_fusion("last", 4, 6), LastItemFusion)
        with pytest.raises(ValueError):
            make_fusion("bogus", 4, 6)

    def test_gated_fusion_gradient_flows_through_steps(self):
        fusion = GatedFusion(d_model=4, d_state=6, rng=np.random.default_rng(0))
        x = Tensor(np.ones(4), requires_grad=True)
        state = initial_state(fusion)
        for _ in range(3):
            representation, state = fuse(fusion, state, x)
        representation.sum().backward()
        assert x.grad is not None
        assert fusion.cell.input_gate.weight.grad is not None

"""Per-module parity: every no-grad ``forward_inference`` fast path must
reproduce the autograd numerics (``forward``, or ``forward_batch`` at B=1
for attention).

The end-to-end fast-path parity tests (``tests/serving``) would localise a
drift poorly; this suite pins each module of the ``nn`` substrate —
``attention``, ``layers``, ``recurrent`` — individually, over
randomized shapes and seeds, including the rotary/relative attention variant
and the single-row streaming attention path.
"""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadAttention, causal_mask, rotary_phases
from repro.nn.layers import Dropout, FeedForward, LayerNorm, Linear
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.tensor import Tensor

ATOL = 1e-12


def rng_for(seed):
    return np.random.default_rng(seed)


def random_coords(rng, length, num_keys=3):
    """``(positions, key_ranks, key_codes)`` of a random stream's rows."""
    key_codes = rng.integers(num_keys, size=length)
    ranks = np.zeros(length, dtype=np.int64)
    counts = {}
    for index, code in enumerate(key_codes):
        ranks[index] = counts.get(int(code), 0)
        counts[int(code)] = ranks[index] + 1
    return np.arange(length, dtype=np.float64), ranks, key_codes.astype(np.int64)


def rotary_inputs(attention, positions, key_ranks, key_codes):
    """``(phases, delta, same)`` of every row against every row."""
    delta = np.clip(
        key_ranks[:, None] - key_ranks[None, :], 0, attention.max_relative_positions - 1
    )
    same = (key_codes[:, None] == key_codes[None, :]).astype(np.float64)
    return rotary_phases(positions, attention.d_head), delta, same


class TestLayersParity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(5,), (7, 6), (2, 3, 6)])
    def test_linear(self, seed, shape):
        rng = rng_for(seed)
        in_features = shape[-1]
        layer = Linear(in_features, 9, rng=rng)
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(
            layer(Tensor(x)).data, layer.forward_inference(x), atol=ATOL
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(8,), (4, 8), (2, 5, 8)])
    def test_layernorm(self, seed, shape):
        rng = rng_for(seed + 10)
        layer = LayerNorm(shape[-1])
        layer.weight.data = rng.standard_normal(shape[-1])
        layer.bias.data = rng.standard_normal(shape[-1])
        x = rng.standard_normal(shape) * 3.0 + 1.0
        np.testing.assert_allclose(
            layer(Tensor(x)).data, layer.forward_inference(x), atol=ATOL
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_feed_forward_eval_mode(self, seed):
        rng = rng_for(seed + 20)
        layer = FeedForward(6, 11, dropout=0.3, rng=rng)
        layer.eval()
        x = rng.standard_normal((5, 6))
        np.testing.assert_allclose(
            layer(Tensor(x)).data, layer.forward_inference(x), atol=ATOL
        )

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.5, rng=rng_for(1))
        layer.eval()
        x = rng_for(2).standard_normal((4, 5))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)


class TestAttentionParity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("num_heads,length", [(1, 6), (2, 9), (3, 4)])
    def test_masked_attention(self, seed, num_heads, length):
        rng = rng_for(seed + 30)
        d_model = 6 * num_heads
        attention = MultiHeadAttention(d_model, num_heads=num_heads, dropout=0.2, rng=rng)
        attention.eval()
        x = rng.standard_normal((length, d_model))
        mask = causal_mask(length)
        np.testing.assert_allclose(
            attention.forward_batch(Tensor(x[None]), mask=mask[None]).data[0],
            attention.forward_inference(x, mask=mask),
            atol=ATOL,
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_rotary_attention_with_relative_bias(self, seed, num_heads):
        rng = rng_for(seed + 40)
        d_model = 8 * num_heads
        attention = MultiHeadAttention(
            d_model, num_heads=num_heads, rotary=True, max_relative_positions=16, rng=rng
        )
        attention.eval()
        length = 7
        x = rng.standard_normal((length, d_model))
        mask = causal_mask(length)
        phases, delta, same = rotary_inputs(attention, *random_coords(rng, length))
        # The autograd reference takes the same inputs with a batch axis.
        graph = attention.forward_batch(
            Tensor(x[None]), mask=mask[None], phases=phases, delta=delta[None], same=same[None]
        )
        np.testing.assert_allclose(
            graph.data[0],
            attention.forward_inference(x, mask=mask, phases=phases, delta=delta, same=same),
            atol=ATOL,
        )

    def test_rotary_logits_shift_invariant(self):
        """The tentpole invariant: shifting every arrival index (and every
        same-key rank) by a constant must not change the output — this is
        what makes cached rows safe to keep across window evictions."""
        rng = rng_for(50)
        attention = MultiHeadAttention(8, num_heads=2, rotary=True, max_relative_positions=8, rng=rng)
        attention.eval()
        length = 6
        x = rng.standard_normal((length, 8))
        mask = causal_mask(length)
        positions, key_ranks, key_codes = random_coords(rng, length)
        phases, delta, same = rotary_inputs(attention, positions, key_ranks, key_codes)
        shifted_phases, shifted_delta, shifted_same = rotary_inputs(
            attention, positions + 137.0, key_ranks + 5, key_codes
        )
        np.testing.assert_allclose(
            attention.forward_inference(x, mask=mask, phases=phases, delta=delta, same=same),
            attention.forward_inference(
                x, mask=mask, phases=shifted_phases, delta=shifted_delta, same=shifted_same
            ),
            atol=1e-9,
        )

    @pytest.mark.parametrize("rotary", [False, True])
    def test_streaming_row_matches_batched(self, rotary):
        """project_qkv_row + attend_row must equal the batched pass's last row."""
        rng = rng_for(60)
        attention = MultiHeadAttention(
            8, num_heads=2, rotary=rotary, max_relative_positions=8 if rotary else 0, rng=rng
        )
        attention.eval()
        length = 5
        x = rng.standard_normal((length, 8))
        mask = causal_mask(length)
        phases = delta = same = row_phases = bias_row = None
        if rotary:
            positions, key_ranks, key_codes = random_coords(rng, length)
            phases, delta, same = rotary_inputs(attention, positions, key_ranks, key_codes)
            row_phases = rotary_phases(positions[-1:], attention.d_head)
            bias_row = attention.relative_bias_row(delta[-1], same[-1])

        _, keys, values = attention.forward_inference(
            x, mask=mask, return_kv=True, phases=phases, delta=delta, same=same
        )
        query, k_row, v_row = attention.project_qkv_row(x[-1], row_phases)
        np.testing.assert_allclose(k_row, keys[:, -1, :], atol=ATOL)
        np.testing.assert_allclose(v_row, values[:, -1, :], atol=ATOL)

        row_out = attention.attend_row(query, keys, values, mask[-1], bias_row=bias_row)
        batched = attention.forward_inference(x, mask=mask, phases=phases, delta=delta, same=same)
        np.testing.assert_allclose(row_out, batched[-1], atol=1e-9)


class TestRecurrentParity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes", [(4, 6), (7, 3)])
    def test_lstm_cell(self, seed, sizes):
        rng = rng_for(seed + 70)
        input_size, hidden_size = sizes
        cell = LSTMCell(input_size, hidden_size, rng=rng)
        state = cell.init_state()
        state_inf = cell.init_state_inference()
        for _ in range(4):
            x = rng.standard_normal(input_size)
            state = cell(Tensor(x), state)
            state_inf = cell.step_inference(x, state_inf)
            np.testing.assert_allclose(state.data[:hidden_size], state_inf[0], atol=ATOL)
            np.testing.assert_allclose(state.data[hidden_size:], state_inf[1], atol=ATOL)

    @pytest.mark.parametrize("seed", range(3))
    def test_lstm_sequence(self, seed):
        rng = rng_for(seed + 80)
        lstm = LSTM(5, 7, rng=rng)
        inputs = rng.standard_normal((6, 5))
        outputs, state = lstm(Tensor(inputs))
        outputs_inf, (hidden_inf, cell_inf) = lstm.forward_inference(inputs)
        np.testing.assert_allclose(outputs.data, outputs_inf, atol=ATOL)
        np.testing.assert_allclose(state.data[:7], hidden_inf, atol=ATOL)
        np.testing.assert_allclose(state.data[7:], cell_inf, atol=ATOL)


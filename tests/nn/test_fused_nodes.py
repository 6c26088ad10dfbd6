"""The hot autograd layers are one graph node each with a closed-form backward.

``F.linear``, ``scaled_dot_product_attention``, ``LayerNorm.forward``, the
LSTM cell step (``LSTMCell.forward``) and the halting head
(``HaltingPolicy.head``) each record a single node.  The composite chains
they replaced are rebuilt here from ``Tensor`` primitives as oracles: the
fused forward must equal them bit for bit, and every fused gradient must
match central finite differences and the oracle's gradient to rounding.
The two scatter backwards (``F.embedding`` and ``Tensor.__getitem__``) must
stay exactly equal to an ``np.add.at`` reference, and ``F.gather_rows``
must route every row's gradient back to the row it read.
"""

import math

import numpy as np
import pytest

from repro.core.ectl import ACTION_HALT, ACTION_WAIT, HaltingPolicy
from repro.nn import functional as F
from repro.nn.attention import MASK_VALUE, scaled_dot_product_attention
from repro.nn.layers import LayerNorm
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import SIGMOID_CLIP, Tensor
from tests.nn.test_tensor import numerical_gradient


# --------------------------------------------------------------------------- #
# oracles: the composite chains the fused nodes replaced
# --------------------------------------------------------------------------- #
def composite_linear(x, weight, bias=None):
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def composite_attention(query, key, value, mask=None, bias=None):
    scores = query.matmul(key.swapaxes(-1, -2)) * (1.0 / math.sqrt(query.shape[-1]))
    if bias is not None:
        scores = scores + bias
    if mask is not None:
        scores = scores + Tensor(np.asarray(mask, dtype=np.float64))
    weights = F.softmax(scores, axis=-1)
    return weights.matmul(value), weights


def composite_layer_norm(x, weight, bias, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = (centred**2).mean(axis=-1, keepdims=True)
    normalised = centred / (var + eps) ** 0.5
    return normalised * weight + bias


def composite_lstm_step(cell, x, hidden, memory):
    """The cell step ``LSTMCell.forward`` replaced: concatenate, four
    ``Linear`` gates, three sigmoids and a tanh.  Returns ``(hidden, memory)``."""
    combined = Tensor.concatenate([hidden, x], axis=-1)
    forget = F.sigmoid(cell.forget_gate(combined))
    inp = F.sigmoid(cell.input_gate(combined))
    out = F.sigmoid(cell.output_gate(combined))
    candidate = F.tanh(cell.cell_gate(combined))
    new_memory = forget * memory + inp * candidate
    return out * F.tanh(new_memory), new_memory


def composite_halting_head(policy, states):
    """The head ``HaltingPolicy.head`` replaced: ``Linear``, ``sigmoid``,
    ``clip(1e-7, 1 − 1e-7)``, ``log`` and ``log(1 − ·)`` of the leading
    ``d_state`` columns.  Returns ``(p, log p, log(1 − p))``."""
    width = policy.projection.in_features
    probability = F.sigmoid(policy.projection(states[..., :width])).squeeze(-1)
    clipped = probability.clip(1e-7, 1.0 - 1e-7)
    return probability, clipped.log(), (1.0 - clipped).log()


def random_mask(rng, shape):
    """Additive 0 / MASK_VALUE mask whose diagonal stays visible."""
    mask = np.where(rng.random(shape) < 0.4, MASK_VALUE, 0.0)
    length = shape[-1]
    mask[..., np.arange(length), np.arange(length)] = 0.0
    return mask


# --------------------------------------------------------------------------- #
# shared checks
# --------------------------------------------------------------------------- #
def check_gradients(build, arrays, seed=0, atol=1e-6):
    """Fused gradients of every input match central finite differences.

    ``build(*tensors)`` returns the output tensor; the scalar checked is
    ``sum(out * upstream)`` for a fixed random ``upstream``.
    """
    tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    out = build(*tensors)
    upstream = np.random.default_rng(seed).standard_normal(out.shape)
    out.backward(upstream)
    for position, array in enumerate(arrays):

        def scalar(perturbed, position=position):
            args = [Tensor(perturbed if j == position else other) for j, other in enumerate(arrays)]
            return float((build(*args).data * upstream).sum())

        expected = numerical_gradient(scalar, array.copy())
        np.testing.assert_allclose(tensors[position].grad, expected, rtol=1e-5, atol=atol)


def assert_gradients_match_composite(fused, composite, arrays, seed=0, norm_rtol=None):
    """Fused and composite gradients of every input agree to rounding.

    With ``norm_rtol`` each gradient's largest deviation must stay within
    ``norm_rtol`` of its largest entry (the bound for sums whose terms a
    closed form adds in another order); otherwise elementwise within
    ``rtol=1e-10, atol=1e-12``.
    """
    fused_inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    chain_inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    out = fused(*fused_inputs)
    upstream = np.random.default_rng(seed).standard_normal(out.shape)
    out.backward(upstream)
    composite(*chain_inputs).backward(upstream)
    for got, expected in zip(fused_inputs, chain_inputs):
        if norm_rtol is None:
            np.testing.assert_allclose(got.grad, expected.grad, rtol=1e-10, atol=1e-12)
        else:
            scale = np.max(np.abs(expected.grad))
            assert np.max(np.abs(got.grad - expected.grad)) <= norm_rtol * scale, scale


def assert_one_node(out, inputs):
    """``out`` is a single node whose parents are exactly ``inputs``."""
    assert len(out._parents) == len(inputs)
    assert all(parent is given for parent, given in zip(out._parents, inputs))
    assert all(parent._backward is None for parent in out._parents)


# --------------------------------------------------------------------------- #
# F.linear
# --------------------------------------------------------------------------- #
LINEAR_SHAPES = [(5,), (4, 5), (2, 3, 5)]


class TestFusedLinear:
    @pytest.mark.parametrize("shape", LINEAR_SHAPES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_forward_bit_identical_to_composite(self, shape, with_bias):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal(shape))
        weight = Tensor(rng.standard_normal((3, 5)))
        bias = Tensor(rng.standard_normal(3)) if with_bias else None
        assert np.array_equal(
            F.linear(x, weight, bias).data, composite_linear(x, weight, bias).data
        )

    @pytest.mark.parametrize("shape", LINEAR_SHAPES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradients_match_finite_differences(self, shape, with_bias):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal(shape), rng.standard_normal((3, 5))]
        if with_bias:
            arrays.append(rng.standard_normal(3))
        check_gradients(lambda *tensors: F.linear(*tensors), arrays)

    @pytest.mark.parametrize("shape", LINEAR_SHAPES)
    def test_gradients_match_composite(self, shape):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(shape), rng.standard_normal((3, 5)), rng.standard_normal(3)]
        assert_gradients_match_composite(F.linear, composite_linear, arrays)

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_one_node(self, with_bias):
        rng = np.random.default_rng(3)
        inputs = [
            Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True),
            Tensor(rng.standard_normal((3, 5)), requires_grad=True),
        ]
        if with_bias:
            inputs.append(Tensor(rng.standard_normal(3), requires_grad=True))
        assert_one_node(F.linear(*inputs), inputs)


# --------------------------------------------------------------------------- #
# scaled_dot_product_attention
# --------------------------------------------------------------------------- #
#: (q/k/v shape, mask shape, bias shape): per-sample (H, T, d) and batched
#: (B, H, T, d) with the batched trainer's broadcast (B, 1, T, T) mask; the
#: last case broadcasts the bias over the batch axis.
ATTENTION_CASES = [
    ((2, 5, 3), (5, 5), (2, 5, 5)),
    ((3, 2, 4, 3), (3, 1, 4, 4), (3, 2, 4, 4)),
    ((2, 2, 4, 3), (2, 1, 4, 4), (2, 4, 4)),
]


def attention_inputs(seed, qkv_shape, mask_shape, bias_shape):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(qkv_shape) for _ in range(3)]
    arrays.append(rng.standard_normal(bias_shape))
    return arrays, random_mask(rng, mask_shape)


class TestFusedAttention:
    @pytest.mark.parametrize("qkv_shape,mask_shape,bias_shape", ATTENTION_CASES)
    def test_forward_bit_identical_to_composite(self, qkv_shape, mask_shape, bias_shape):
        arrays, mask = attention_inputs(4, qkv_shape, mask_shape, bias_shape)
        q, k, v, bias = [Tensor(array) for array in arrays]
        for kwargs in ({}, {"mask": mask}, {"mask": mask, "bias": bias}):
            out, weights = scaled_dot_product_attention(q, k, v, **kwargs)
            expected_out, expected_weights = composite_attention(q, k, v, **kwargs)
            assert np.array_equal(out.data, expected_out.data)
            assert np.array_equal(weights.data, expected_weights.data)

    @pytest.mark.parametrize("qkv_shape,mask_shape,bias_shape", ATTENTION_CASES)
    def test_gradients_match_finite_differences(self, qkv_shape, mask_shape, bias_shape):
        arrays, mask = attention_inputs(5, qkv_shape, mask_shape, bias_shape)
        check_gradients(
            lambda q, k, v, bias: scaled_dot_product_attention(q, k, v, mask=mask, bias=bias)[0],
            arrays,
        )

    @pytest.mark.parametrize("qkv_shape,mask_shape,bias_shape", ATTENTION_CASES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradients_match_composite(self, qkv_shape, mask_shape, bias_shape, with_bias):
        """With a bias this also pins that its gradient does not alias the
        buffer the dQ/dK products scale in place."""
        arrays, mask = attention_inputs(6, qkv_shape, mask_shape, bias_shape)
        if not with_bias:
            arrays = arrays[:3]

        def output_of(attend):
            return lambda q, k, v, bias=None: attend(q, k, v, mask=mask, bias=bias)[0]

        assert_gradients_match_composite(
            output_of(scaled_dot_product_attention), output_of(composite_attention), arrays
        )

    def test_one_node_and_detached_weights(self):
        arrays, mask = attention_inputs(9, (2, 2, 4, 3), (2, 1, 4, 4), (2, 2, 4, 4))
        inputs = [Tensor(array, requires_grad=True) for array in arrays]
        out, weights = scaled_dot_product_attention(*inputs[:3], mask=mask, bias=inputs[3])
        assert_one_node(out, inputs)
        assert not weights.requires_grad
        out, _ = scaled_dot_product_attention(*inputs[:3], mask=mask)
        assert_one_node(out, inputs[:3])


# --------------------------------------------------------------------------- #
# LayerNorm
# --------------------------------------------------------------------------- #
class TestFusedLayerNorm:
    @staticmethod
    def make_norm(seed, width):
        rng = np.random.default_rng(seed)
        norm = LayerNorm(width)
        norm.weight.data = rng.standard_normal(width)
        norm.bias.data = rng.standard_normal(width)
        return norm

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_forward_bit_identical_to_composite_and_inference(self, shape):
        norm = self.make_norm(10, shape[-1])
        x = Tensor(np.random.default_rng(11).standard_normal(shape) * 3.0 + 1.0)
        out = norm(x).data
        assert np.array_equal(out, composite_layer_norm(x, norm.weight, norm.bias, norm.eps).data)
        assert np.array_equal(out, norm.forward_inference(x.data))

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_gradients_match_finite_differences(self, shape):
        norm = self.make_norm(12, shape[-1])
        x = np.random.default_rng(13).standard_normal(shape)

        def build(x, weight, bias):
            norm.weight, norm.bias = weight, bias
            return norm(x)

        check_gradients(build, [x, norm.weight.data.copy(), norm.bias.data.copy()])

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_gradients_match_composite(self, shape):
        norm = self.make_norm(16, shape[-1])
        arrays = [
            np.random.default_rng(17).standard_normal(shape),
            norm.weight.data.copy(),
            norm.bias.data.copy(),
        ]

        def fused(x, weight, bias):
            norm.weight, norm.bias = weight, bias
            return norm(x)

        assert_gradients_match_composite(
            fused,
            lambda x, weight, bias: composite_layer_norm(x, weight, bias, norm.eps),
            arrays,
        )

    def test_one_node(self):
        norm = self.make_norm(14, 5)
        x = Tensor(np.random.default_rng(15).standard_normal((2, 3, 5)), requires_grad=True)
        assert_one_node(norm(x), [x, norm.weight, norm.bias])


# --------------------------------------------------------------------------- #
# LSTMCell.forward
# --------------------------------------------------------------------------- #
#: Leading shapes of the cell step: EARLIEST's ``(d,)`` vector, and the
#: fusion gate's stacked rows at B=1 and B=16.
LSTM_LEADS = [(), (1,), (16,)]
LSTM_SIZES = (5, 4)


def lstm_arrays(seed, lead, scale=1.0):
    """``x``, the ``[h | c]`` state and the eight gate parameters.

    ``scale`` multiplies the weights; at 40 most gate pre-activations lie
    beyond ``SIGMOID_CLIP``.
    """
    input_size, hidden_size = LSTM_SIZES
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(lead + (input_size,)), rng.standard_normal(lead + (2 * hidden_size,))]
    for _ in range(4):
        arrays.append(rng.standard_normal((hidden_size, input_size + hidden_size)) * scale)
        arrays.append(rng.standard_normal(hidden_size))
    return arrays


def lstm_builds():
    """``(fused, composite)`` builds over ``(x, state, *gate parameters)``."""
    input_size, hidden_size = LSTM_SIZES
    cell = LSTMCell(input_size, hidden_size)
    layers = (cell.forget_gate, cell.input_gate, cell.output_gate, cell.cell_gate)

    def install(params):
        for layer, weight, bias in zip(layers, params[0::2], params[1::2]):
            layer.weight, layer.bias = weight, bias

    def fused(x, state, *params):
        install(params)
        return cell(x, state)

    def composite(x, state, *params):
        install(params)
        hidden, memory = composite_lstm_step(
            cell, x, state[..., :hidden_size], state[..., hidden_size:]
        )
        return Tensor.concatenate([hidden, memory], axis=-1)

    return fused, composite


class TestFusedLSTMStep:
    @pytest.mark.parametrize("lead", LSTM_LEADS)
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_forward_bit_identical_to_composite(self, lead, scale):
        fused, composite = lstm_builds()
        tensors = [Tensor(array) for array in lstm_arrays(20, lead, scale)]
        assert np.array_equal(fused(*tensors).data, composite(*tensors).data)

    def test_scaled_weights_put_pre_activations_beyond_the_clip(self):
        """The ``scale=40`` cases exercise the clip: a third or more of the
        forget-gate pre-activations lie beyond ``SIGMOID_CLIP``."""
        arrays = lstm_arrays(20, (16,), scale=40.0)
        combined = np.concatenate([arrays[1][:, : LSTM_SIZES[1]], arrays[0]], axis=-1)
        beyond = np.abs(combined @ arrays[2].T + arrays[3]) > SIGMOID_CLIP
        assert 0.3 < beyond.mean() < 1.0

    @pytest.mark.parametrize("lead", LSTM_LEADS)
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_gradients_within_1e_12_of_composite(self, lead, scale):
        fused, composite = lstm_builds()
        assert_gradients_match_composite(
            fused, composite, lstm_arrays(21, lead, scale), norm_rtol=1e-12
        )

    @pytest.mark.parametrize("lead", LSTM_LEADS)
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_gradients_match_finite_differences(self, lead, scale):
        fused, _ = lstm_builds()
        check_gradients(fused, lstm_arrays(22, lead, scale))

    @pytest.mark.parametrize("lead", LSTM_LEADS)
    def test_one_node(self, lead):
        fused, _ = lstm_builds()
        inputs = [Tensor(array, requires_grad=True) for array in lstm_arrays(23, lead)]
        assert_one_node(fused(*inputs), inputs)

    def test_zero_state_by_default(self):
        cell = LSTMCell(*LSTM_SIZES, rng=np.random.default_rng(24))
        x = Tensor(np.random.default_rng(25).standard_normal((3, LSTM_SIZES[0])))
        zeros = Tensor(np.zeros((3, 2 * LSTM_SIZES[1])))
        assert np.array_equal(cell(x).data, cell(x, zeros).data)


# --------------------------------------------------------------------------- #
# HaltingPolicy.head
# --------------------------------------------------------------------------- #
D_STATE = 6
#: Leading shapes of the head's states: a ``(d,)`` vector, B=1 and B=16.
HEAD_LEADS = [(), (1,), (16,)]
#: Logit of a halting probability at the lower clip bound, 1e-7.
LOGIT_AT_CLIP = math.log(1e-7 / (1.0 - 1e-7))


def head_arrays(seed, lead, width=D_STATE, logits=None):
    """States, weight and bias; ``logits`` (one per state row) sets the bias
    so the rows' logits take those values."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal(lead + (width,))
    weight = rng.standard_normal((1, D_STATE)) * 0.5
    bias = rng.standard_normal(1)
    if logits is not None:
        # Shift each row's state so its own logit hits the requested value.
        current = states[..., :D_STATE] @ weight[0] + bias[0]
        states[..., :D_STATE] += np.multiply.outer(
            np.asarray(logits) - current, weight[0] / (weight[0] @ weight[0])
        )
    return [states, weight, bias]


def head_builds():
    policy = HaltingPolicy(D_STATE)

    def install(weight, bias):
        policy.projection.weight, policy.projection.bias = weight, bias

    def fused(states, weight, bias):
        install(weight, bias)
        return policy.head(states)

    def composite(states, weight, bias):
        install(weight, bias)
        return Tensor.stack(list(composite_halting_head(policy, states)), axis=-1)

    return fused, composite


#: Logits per row of a B=16 batch: inside the clip, at its bounds, beyond
#: them (probabilities within 1e-7 of 0 and 1) and beyond SIGMOID_CLIP.
CLIP_LOGITS = [0.3, -2.0, 4.0, LOGIT_AT_CLIP, -LOGIT_AT_CLIP, -20.0, 20.0, -70.0, 70.0] + [
    0.1 * k for k in range(7)
]


class TestFusedHaltingHead:
    @pytest.mark.parametrize("lead", HEAD_LEADS)
    @pytest.mark.parametrize("width", [D_STATE, 2 * D_STATE])
    def test_forward_bit_identical_to_composite(self, lead, width):
        fused, composite = head_builds()
        tensors = [Tensor(array) for array in head_arrays(30, lead, width)]
        assert np.array_equal(fused(*tensors).data, composite(*tensors).data)

    def test_forward_at_and_beyond_the_clip_bounds(self):
        fused, composite = head_builds()
        arrays = head_arrays(31, (16,), logits=CLIP_LOGITS)
        out = fused(*(Tensor(array) for array in arrays)).data
        assert np.array_equal(out, composite(*(Tensor(array) for array in arrays)).data)
        assert out[5, 0] < 1e-7 and out[6, 0] > 1.0 - 1e-7
        assert out[5, 1] == np.log(1e-7) and out[6, 2] == np.log(1.0 - (1.0 - 1e-7))
        assert np.isclose(out[3, 0], 1e-7, rtol=1e-6)

    @pytest.mark.parametrize("lead", HEAD_LEADS)
    @pytest.mark.parametrize("width", [D_STATE, 2 * D_STATE])
    def test_gradients_within_1e_12_of_composite(self, lead, width):
        fused, composite = head_builds()
        assert_gradients_match_composite(
            fused, composite, head_arrays(32, lead, width), norm_rtol=1e-12
        )

    def test_gradients_at_and_beyond_the_clip_bounds(self):
        fused, composite = head_builds()
        arrays = head_arrays(33, (16,), width=2 * D_STATE, logits=CLIP_LOGITS)
        assert_gradients_match_composite(fused, composite, arrays, norm_rtol=1e-12)

    @pytest.mark.parametrize("lead", HEAD_LEADS)
    @pytest.mark.parametrize("width", [D_STATE, 2 * D_STATE])
    def test_gradients_match_finite_differences(self, lead, width):
        fused, _ = head_builds()
        check_gradients(fused, head_arrays(34, lead, width))

    def test_gradients_beyond_the_clip_bounds_match_finite_differences(self):
        """Rows clipped away (or beyond SIGMOID_CLIP) pass no log gradient;
        the kink at the bound itself is left to the composite comparison."""
        fused, _ = head_builds()
        logits = [-20.0, 20.0, -70.0, 70.0, 0.5, -1.5]
        check_gradients(fused, head_arrays(35, (6,), logits=logits))

    @pytest.mark.parametrize("lead", HEAD_LEADS)
    def test_one_node(self, lead):
        fused, _ = head_builds()
        inputs = [Tensor(array, requires_grad=True) for array in head_arrays(36, lead)]
        assert_one_node(fused(*inputs), inputs)

    def test_matches_forward_and_log_prob(self):
        """On a ``(d,)`` state the head equals the policy's scalar
        ``forward`` and ``log_prob``, bit for bit."""
        policy = HaltingPolicy(D_STATE, rng=np.random.default_rng(37))
        for state in np.random.default_rng(38).standard_normal((5, D_STATE)) * 4.0:
            head = policy.head(Tensor(state)).data
            assert head[0] == policy(Tensor(state)).data
            for column, action in ((1, ACTION_HALT), (2, ACTION_WAIT)):
                assert head[column] == policy.log_prob(Tensor(state), action).data


# --------------------------------------------------------------------------- #
# gather_rows
# --------------------------------------------------------------------------- #
class TestGatherRows:
    def test_rows_and_gradients_come_from_their_sources(self):
        rng = np.random.default_rng(40)
        sources = [Tensor(rng.standard_normal((n, 5)), requires_grad=True) for n in (3, 1, 4)]
        picks = [(2, 3), (0, 0), (2, 1), (0, 2)]
        out = F.gather_rows(sources, picks, 4)
        assert out.shape == (4, 4)
        for row, (source, index) in enumerate(picks):
            assert np.array_equal(out.data[row], sources[source].data[index, :4])
        assert_one_node(out, [sources[2], sources[0]])
        upstream = rng.standard_normal((4, 4))
        out.backward(upstream)
        expected = [np.zeros((n, 5)) for n in (3, 1, 4)]
        for row, (source, index) in enumerate(picks):
            expected[source][index, :4] += upstream[row]
        assert np.array_equal(sources[0].grad, expected[0])
        assert np.array_equal(sources[2].grad, expected[2])
        assert sources[1].grad is None

    def test_constant_sources_are_skipped(self):
        rng = np.random.default_rng(41)
        zero = Tensor(np.zeros((1, 3)))
        block = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = F.gather_rows([zero, block], [(0, 0), (1, 1), (0, 0)])
        assert np.array_equal(out.data[[0, 2]], np.zeros((2, 3)))
        assert_one_node(out, [block])
        out.backward(np.ones((3, 3)))
        assert np.array_equal(block.grad, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


# --------------------------------------------------------------------------- #
# scatter backwards
# --------------------------------------------------------------------------- #
class TestScatterBackwards:
    @pytest.mark.parametrize("index_shape", [(50,), (8, 40), (5000,), (64, 80)])
    def test_embedding_scatter_equals_add_at(self, index_shape):
        """Duplicate indices, below and above the old 4096-index cut-over."""
        rng = np.random.default_rng(16)
        weight = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        indices = rng.integers(0, 7, size=index_shape)
        upstream = rng.standard_normal(index_shape + (3,))
        F.embedding(weight, indices).backward(upstream)
        expected = np.zeros((7, 3))
        np.add.at(expected, indices.reshape(-1), upstream.reshape(-1, 3))
        assert np.array_equal(weight.grad, expected)

    @pytest.mark.parametrize(
        "index",
        [1, np.int64(2), slice(1, 4), (slice(None), 2), (1, slice(0, 3)), (-1, -2)],
    )
    def test_basic_index_gradient_is_exact(self, index):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        picked = x[index]
        upstream = rng.standard_normal(picked.shape)
        picked.backward(upstream)
        expected = np.zeros((4, 5))
        np.add.at(expected, index, upstream)
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize(
        "index",
        [
            ([0, 2, 0, 0],),
            (np.array([1, 1, 3]), np.array([0, 0, 4])),
            (slice(None), [4, 4, 1]),
            np.array([True, False, True, True]),
        ],
    )
    def test_fancy_index_gradient_sums_duplicates(self, index):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        picked = x[index]
        upstream = rng.standard_normal(picked.shape)
        picked.backward(upstream)
        expected = np.zeros((4, 5))
        np.add.at(expected, index, upstream)
        assert np.array_equal(x.grad, expected)

"""The hot autograd layers are one graph node each with a closed-form backward.

``F.linear``, ``scaled_dot_product_attention`` and ``LayerNorm.forward``
each record a single node.  The composite chains they replaced are rebuilt
here from ``Tensor`` primitives as oracles: the fused forward must equal
them bit for bit, and every fused gradient must match central finite
differences and the oracle's gradient to rounding.  The two scatter
backwards (``F.embedding`` and ``Tensor.__getitem__``) must stay exactly
equal to an ``np.add.at`` reference.
"""

import math

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import MASK_VALUE, scaled_dot_product_attention
from repro.nn.layers import LayerNorm
from repro.nn.tensor import Tensor
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


def assert_gradients_match_composite(fused, composite, arrays, seed=0):
    """Fused and composite gradients of every input agree to rounding."""
    fused_inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    chain_inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    out = fused(*fused_inputs)
    upstream = np.random.default_rng(seed).standard_normal(out.shape)
    out.backward(upstream)
    composite(*chain_inputs).backward(upstream)
    for got, expected in zip(fused_inputs, chain_inputs):
        np.testing.assert_allclose(got.grad, expected.grad, rtol=1e-10, atol=1e-12)


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

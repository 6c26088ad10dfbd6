"""Tests for the composed differentiable operations in repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.tensor import SIGMOID_CLIP, Tensor


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((5, 7)))
        probabilities = F.softmax(logits, axis=-1).data
        np.testing.assert_allclose(probabilities.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_invariant_to_constant_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        base = F.softmax(Tensor(logits)).data
        shifted = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_large_logits_are_stable(self):
        probabilities = F.softmax(Tensor([[1000.0, -1000.0]])).data
        assert np.all(np.isfinite(probabilities))
        assert probabilities[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    @given(arrays(np.float64, (2, 5), elements=st.floats(-20, 20)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_probabilities_bounded(self, logits):
        probabilities = F.softmax(Tensor(logits)).data
        assert np.all(probabilities >= 0.0)
        assert np.all(probabilities <= 1.0 + 1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_has_small_loss(self):
        logits = Tensor([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        loss = F.cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_uniform_prediction_loss_is_log_c(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = F.cross_entropy(logits, [0, 1, 2, 3])
        assert loss.item() == pytest.approx(np.log(5), abs=1e-9)

    def test_reduction_modes(self):
        logits = Tensor(np.zeros((3, 2)))
        targets = [0, 1, 0]
        none = F.cross_entropy(logits, targets, reduction="none")
        total = F.cross_entropy(logits, targets, reduction="sum")
        mean = F.cross_entropy(logits, targets, reduction="mean")
        assert none.shape == (3,)
        assert total.item() == pytest.approx(none.data.sum())
        assert mean.item() == pytest.approx(none.data.mean())

    def test_invalid_reduction_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((1, 2))), [0], reduction="bogus")

    def test_requires_2d_logits(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros(3)), [0])

    def test_gradient_is_softmax_minus_onehot(self):
        logits_data = np.array([[1.0, 2.0, 0.5]])
        logits = Tensor(logits_data.copy(), requires_grad=True)
        F.cross_entropy(logits, [2]).backward()
        softmax = np.exp(logits_data) / np.exp(logits_data).sum()
        expected = softmax.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-9)

    def test_nll_loss_consistent_with_cross_entropy(self):
        logits = Tensor(np.random.default_rng(2).standard_normal((4, 3)))
        targets = [0, 2, 1, 1]
        ce = F.cross_entropy(logits, targets).item()
        nll = F.nll_loss(F.log_softmax(logits), targets).item()
        assert ce == pytest.approx(nll, abs=1e-10)


class TestOtherLosses:
    def test_binary_cross_entropy_bounds(self):
        probabilities = Tensor([0.9, 0.1])
        loss = F.binary_cross_entropy(probabilities, [1.0, 0.0])
        assert loss.item() == pytest.approx(-np.log(0.9), abs=1e-6)

    def test_binary_cross_entropy_clips_extremes(self):
        loss = F.binary_cross_entropy(Tensor([1.0, 0.0]), [0.0, 1.0])
        assert np.isfinite(loss.item())

    def test_mse_loss_zero_for_identical_inputs(self):
        prediction = Tensor([1.0, 2.0, 3.0])
        assert F.mse_loss(prediction, [1.0, 2.0, 3.0]).item() == pytest.approx(0.0)

    def test_mse_loss_value(self):
        assert F.mse_loss(Tensor([2.0]), [0.0]).item() == pytest.approx(4.0)


class TestEmbeddingDropoutAndUtils:
    def test_embedding_selects_rows(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        picked = F.embedding(weight, [1, 3])
        np.testing.assert_allclose(picked.data, np.array([[3.0, 4.0, 5.0], [9.0, 10.0, 11.0]]))

    def test_embedding_gradient_scatters_to_rows(self):
        weight = Tensor(np.zeros((4, 3)), requires_grad=True)
        F.embedding(weight, [1, 1, 2]).sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(weight.grad, expected)

    def test_dropout_disabled_in_eval(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, p=0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.5, training=True)

    def test_one_hot_shape_and_content(self):
        encoded = F.one_hot([0, 2, 1], num_classes=4)
        assert encoded.shape == (3, 4)
        np.testing.assert_allclose(encoded.sum(axis=1), np.ones(3))
        assert encoded[1, 2] == 1.0

    def test_linear_matches_manual(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        weight = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        bias = Tensor(np.array([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(F.linear(x, weight, bias).data, [[1.5, 2.5, 3.5]])

    def test_gelu_is_monotone_on_sample(self):
        x = np.linspace(-3, 3, 50)
        y = F.gelu(Tensor(x)).data
        assert y[-1] > y[0]

    def test_stack_and_concatenate_helpers(self):
        parts = [Tensor([1.0]), Tensor([2.0])]
        assert F.stack(parts).shape == (2, 1)
        assert F.concatenate(parts).shape == (2,)


def clip_sigmoid(x: np.ndarray) -> np.ndarray:
    """The ``np.clip`` form of :func:`F.sigmoid_array`, kept as its oracle."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -SIGMOID_CLIP, SIGMOID_CLIP)))


class TestSigmoidArray:
    EDGES = np.array(
        [
            0.0,
            -0.0,
            SIGMOID_CLIP,
            -SIGMOID_CLIP,
            SIGMOID_CLIP + 1e-9,
            SIGMOID_CLIP - 1e-9,
            -SIGMOID_CLIP + 1e-9,
            -SIGMOID_CLIP - 1e-9,
            np.inf,
            -np.inf,
            np.nan,
        ]
    )

    @pytest.mark.parametrize("name", ["edges", "random"])
    def test_equals_clip_form_and_tensor_sigmoid(self, name):
        """The two-ufunc clamp gives the clip form's and the autograd
        sigmoid's values exactly, NaN included."""
        rng = np.random.default_rng(0)
        x = self.EDGES if name == "edges" else rng.standard_normal(1000) * 40.0
        out = F.sigmoid_array(x)
        np.testing.assert_array_equal(out, clip_sigmoid(x))
        np.testing.assert_array_equal(out, Tensor(x).sigmoid().data)

    def test_scalar_input(self):
        """The halting head passes one numpy scalar."""
        for value in self.EDGES:
            np.testing.assert_array_equal(
                F.sigmoid_array(np.float64(value)), clip_sigmoid(np.float64(value))
            )

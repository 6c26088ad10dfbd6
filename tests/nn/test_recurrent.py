"""Tests for the LSTM cell and full-sequence LSTM."""

import numpy as np
import pytest

from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.tensor import Tensor
from tests.nn.test_functional import clip_sigmoid


def four_gate_step(cell, combined, memory):
    """The numpy step as four separate gates: one ``Linear`` GEMV/GEMM and
    one activation per gate.  The one-buffer steps must equal it bit for bit."""
    forget = clip_sigmoid(cell.forget_gate.forward_inference(combined))
    inp = clip_sigmoid(cell.input_gate.forward_inference(combined))
    out = clip_sigmoid(cell.output_gate.forward_inference(combined))
    candidate = np.tanh(cell.cell_gate.forward_inference(combined))
    new_memory = forget * memory + inp * candidate
    return out * np.tanh(new_memory), new_memory


def random_cell(input_size, hidden_size, seed):
    """A cell with random biases on every gate (the default init zeroes
    three of them)."""
    rng = np.random.default_rng(seed)
    cell = LSTMCell(input_size, hidden_size, rng=rng)
    for gate in (cell.forget_gate, cell.input_gate, cell.output_gate, cell.cell_gate):
        gate.bias.data = rng.standard_normal(hidden_size)
    return cell, rng


class TestLSTMCell:
    def test_initial_state_is_zero(self):
        cell = LSTMCell(4, 6)
        np.testing.assert_allclose(cell.init_state().data, np.zeros(12))

    def test_step_output_shapes(self):
        cell = LSTMCell(4, 6, rng=np.random.default_rng(0))
        assert cell(Tensor(np.ones(4))).shape == (12,)
        assert cell(Tensor(np.ones((3, 4)))).shape == (3, 12)

    def test_hidden_is_bounded_by_tanh(self):
        cell = LSTMCell(4, 6, rng=np.random.default_rng(0))
        hidden = cell(Tensor(np.full(4, 100.0))).data[:6]
        assert np.all(np.abs(hidden) <= 1.0)

    def test_state_carries_information(self):
        cell = LSTMCell(3, 5, rng=np.random.default_rng(0))
        x = Tensor(np.ones(3))
        first = cell(x)
        second = cell(x, first)
        assert not np.allclose(first.data[:5], second.data[:5])

    def test_step_matches_step_inference(self):
        """The autograd block is ``[hidden | cell]`` of the numpy step, bit
        for bit."""
        cell, rng = random_cell(32, 48, seed=5)
        block, state = cell.init_state(), cell.init_state_inference()
        for _ in range(5):
            x = rng.standard_normal(32) * 3.0
            block = cell(Tensor(x), block)
            state = cell.step_inference(x, state)
            assert np.array_equal(block.data, np.concatenate(state))

    def test_forget_bias_initialised_positive(self):
        cell = LSTMCell(3, 5)
        assert np.all(cell.forget_gate.bias.data == 1.0)

    def test_gradients_flow_through_time(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        x = Tensor(np.ones(3), requires_grad=True)
        state = None
        for _ in range(3):
            state = cell(x, state)
        state[:4].sum().backward()
        assert x.grad is not None
        assert cell.input_gate.weight.grad is not None


#: (input, hidden) sizes; a packed ``(in + h, 4h)`` gate GEMV rounds
#: differently from the per-gate GEMVs at (7, 3) and (5, 5) on OpenBLAS.
ORACLE_SIZES = [(32, 48), (7, 3), (5, 5)]


class TestInferenceStepsMatchFourGates:
    @pytest.mark.parametrize("sizes", ORACLE_SIZES, ids=lambda s: "in%d-h%d" % s)
    def test_step_inference_over_20_chained_steps(self, sizes):
        input_size, hidden_size = sizes
        cell, rng = random_cell(input_size, hidden_size, seed=input_size * 100 + hidden_size)
        state = reference = cell.init_state_inference()
        for _ in range(20):
            x = rng.standard_normal(input_size) * 3.0
            state = cell.step_inference(x, state)
            reference = four_gate_step(cell, np.concatenate([reference[0], x]), reference[1])
            assert np.array_equal(state[0], reference[0])
            assert np.array_equal(state[1], reference[1])

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("sizes", ORACLE_SIZES, ids=lambda s: "in%d-h%d" % s)
    def test_step_batch_inference_over_20_chained_steps(self, sizes, batch):
        input_size, hidden_size = sizes
        cell, rng = random_cell(input_size, hidden_size, seed=batch)
        hidden = memory = np.zeros((batch, hidden_size))
        ref_hidden, ref_memory = hidden, memory
        for _ in range(20):
            xs = rng.standard_normal((batch, input_size)) * 3.0
            hidden, memory = cell.step_batch_inference(xs, list(zip(hidden, memory)))
            ref_hidden, ref_memory = four_gate_step(
                cell, np.concatenate([ref_hidden, xs], axis=-1), ref_memory
            )
            assert np.array_equal(hidden, ref_hidden)
            assert np.array_equal(memory, ref_memory)


class TestLSTM:
    def test_sequence_output_shape(self):
        lstm = LSTM(3, 7, rng=np.random.default_rng(0))
        outputs, state = lstm(Tensor(np.random.default_rng(1).standard_normal((9, 3))))
        assert outputs.shape == (9, 7)
        assert state.shape == (14,)

    def test_final_state_matches_last_output(self):
        lstm = LSTM(3, 7, rng=np.random.default_rng(0))
        outputs, state = lstm(Tensor(np.random.default_rng(1).standard_normal((5, 3))))
        np.testing.assert_allclose(outputs.data[-1], state.data[:7])

    def test_causality_prefix_consistency(self):
        """The output at step t must not depend on later inputs."""
        lstm = LSTM(3, 5, rng=np.random.default_rng(0))
        inputs = np.random.default_rng(1).standard_normal((6, 3))
        full, _ = lstm(Tensor(inputs))
        prefix, _ = lstm(Tensor(inputs[:4]))
        np.testing.assert_allclose(full.data[:4], prefix.data, atol=1e-12)

    def test_initial_state_can_be_provided(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(0))
        state = Tensor(np.ones(8))
        outputs, _ = lstm(Tensor(np.zeros((3, 2))), state=state)
        default_outputs, _ = lstm(Tensor(np.zeros((3, 2))))
        assert not np.allclose(outputs.data, default_outputs.data)

"""Recurrent layers: an LSTM cell and a thin full-sequence wrapper.

The EARLIEST baseline uses an LSTM encoder over each (per-key) sequence, and
KVEC's embedding-fusion block uses an LSTM-style multiple gating mechanism.
Both are built on :class:`LSTMCell`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class LSTMCell(Module):
    """A single LSTM cell operating on vectors (no batch dimension required).

    The gates follow the standard formulation:

    .. math::
        f_t = \\sigma(W_f [h_{t-1}; x_t] + b_f) \\\\
        i_t = \\sigma(W_i [h_{t-1}; x_t] + b_i) \\\\
        o_t = \\sigma(W_o [h_{t-1}; x_t] + b_o) \\\\
        c_t = f_t \\odot c_{t-1} + i_t \\odot \\tanh(W_c [h_{t-1}; x_t] + b_c) \\\\
        h_t = o_t \\odot \\tanh(c_t)
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
        forget_bias: float = 1.0,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        concat = input_size + hidden_size
        self.forget_gate = Linear(concat, hidden_size, rng=rng)
        self.input_gate = Linear(concat, hidden_size, rng=rng)
        self.output_gate = Linear(concat, hidden_size, rng=rng)
        self.cell_gate = Linear(concat, hidden_size, rng=rng)
        # A positive forget-gate bias is the standard trick to ease gradient
        # flow early in training.
        self.forget_gate.bias.data = init.ones((hidden_size,)) * forget_bias

    def init_state(self) -> Tuple[Tensor, Tensor]:
        """Return a zero (hidden, cell) state pair."""
        return (
            Tensor(np.zeros(self.hidden_size)),
            Tensor(np.zeros(self.hidden_size)),
        )

    def forward(
        self,
        x: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Advance one step.  ``x`` has shape ``(input_size,)``.

        Returns the new ``(hidden, cell)`` pair.
        """
        if state is None:
            state = self.init_state()
        hidden, cell = state
        combined = Tensor.concatenate([hidden, x], axis=-1)
        forget = F.sigmoid(self.forget_gate(combined))
        inp = F.sigmoid(self.input_gate(combined))
        out = F.sigmoid(self.output_gate(combined))
        candidate = F.tanh(self.cell_gate(combined))
        new_cell = forget * cell + inp * candidate
        new_hidden = out * F.tanh(new_cell)
        return new_hidden, new_cell

    def init_state_inference(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero (hidden, cell) state as raw arrays for the no-grad fast path."""
        return np.zeros(self.hidden_size), np.zeros(self.hidden_size)

    def step_inference(
        self, x: np.ndarray, state: Tuple[np.ndarray, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one step on raw arrays, mirroring :meth:`forward` numerics.

        Each gate's GEMV writes its row of one ``(4, hidden)`` buffer and
        its bias is added in place; one sigmoid covers the forget, input
        and output rows and one tanh the candidate.  Those are the BLAS
        calls and elementwise ops of four separate ``Linear`` gates, so the
        values equal the per-gate form bit for bit.  One packed
        ``(in + hidden, 4 * hidden)`` GEMV would not: BLAS rounds it
        differently at hidden sizes that miss its kernel width.
        """
        hidden, cell = state
        return self._gates_inference(np.concatenate([hidden, x]), cell)

    def step_batch(
        self, xs: Tensor, states
    ) -> Tuple[Tensor, Tensor]:
        """Autograd twin of :meth:`step_batch_inference`: one gate GEMM.

        ``xs`` is a ``(B, input_size)`` tensor and ``states`` a sequence of
        ``B`` ``(hidden, cell)`` tensor pairs, one per independent stream.
        Returns stacked ``(B, hidden)`` / ``(B, cell)`` graph tensors.
        Parity contract: per-row numerics match :meth:`forward` up to BLAS
        summation order — the gates see the same concatenated inputs, just
        as a GEMM instead of ``B`` GEMVs.
        """
        hidden = Tensor.stack([state[0] for state in states])
        cell = Tensor.stack([state[1] for state in states])
        combined = Tensor.concatenate([hidden, xs], axis=-1)
        forget = F.sigmoid(self.forget_gate(combined))
        inp = F.sigmoid(self.input_gate(combined))
        out = F.sigmoid(self.output_gate(combined))
        candidate = F.tanh(self.cell_gate(combined))
        new_cell = forget * cell + inp * candidate
        new_hidden = out * F.tanh(new_cell)
        return new_hidden, new_cell

    def step_batch_inference(
        self, xs: np.ndarray, states
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One step for ``B`` *independent* cells in a single GEMM per gate.

        ``xs`` has shape ``(B, input_size)`` and ``states`` is a sequence of
        ``B`` ``(hidden, cell)`` pairs (one per stream).  Returns the stacked
        ``(B, hidden)`` / ``(B, cell)`` arrays; per-row numerics match
        :meth:`step_inference` up to BLAS summation order.  The gates fill
        one ``(4, B, hidden)`` buffer with one GEMM each, so, as in
        :meth:`step_inference`, the values equal four separate ``Linear``
        gates over the stacked rows bit for bit.
        """
        hidden = np.stack([state[0] for state in states])
        cell = np.stack([state[1] for state in states])
        return self._gates_inference(np.concatenate([hidden, xs], axis=-1), cell)

    def _gates_inference(
        self, combined: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gate arithmetic of both numpy steps on ``(..., in + hidden)`` rows."""
        gates = np.empty((4,) + combined.shape[:-1] + (self.hidden_size,))
        layers = (self.forget_gate, self.input_gate, self.output_gate, self.cell_gate)
        for slot, layer in zip(gates, layers):
            np.matmul(combined, layer.weight.data.T, out=slot)
            slot += layer.bias.data
        forget, inp, out = F.sigmoid_array(gates[:3])
        candidate = np.tanh(gates[3])
        new_cell = forget * cell + inp * candidate
        new_hidden = out * np.tanh(new_cell)
        return new_hidden, new_cell


class LSTM(Module):
    """Run an :class:`LSTMCell` over a full sequence of input vectors."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self,
        inputs: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Encode ``inputs`` of shape ``(T, input_size)``.

        Returns ``(outputs, (hidden, cell))`` where ``outputs`` has shape
        ``(T, hidden_size)`` and the state is the final step's state.
        """
        hidden_states: List[Tensor] = []
        current = state
        for t in range(inputs.shape[0]):
            hidden, cell = self.cell(inputs[t], current)
            current = (hidden, cell)
            hidden_states.append(hidden)
        outputs = Tensor.stack(hidden_states, axis=0)
        return outputs, current

    def forward_inference(
        self,
        inputs: np.ndarray,
        state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Raw-array evaluation pass mirroring :meth:`forward` numerics."""
        current = self.cell.init_state_inference() if state is None else state
        outputs = np.empty((inputs.shape[0], self.hidden_size), dtype=np.float64)
        for t in range(inputs.shape[0]):
            current = self.cell.step_inference(inputs[t], current)
            outputs[t] = current[0]
        return outputs, current

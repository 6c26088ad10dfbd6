"""Recurrent layers: an LSTM cell and a thin full-sequence wrapper.

The EARLIEST baseline uses an LSTM encoder over each (per-key) sequence, and
KVEC's embedding-fusion block uses an LSTM-style multiple gating mechanism.
Both are built on :class:`LSTMCell`, whose autograd step is one graph node
for EARLIEST's ``(d,)`` vectors and for the fusion gate's stacked ``(B, d)``
rows alike.
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
    """A single LSTM cell over ``(..., input_size)`` rows.

    The gates follow the standard formulation:

    .. math::
        f_t = \\sigma(W_f [h_{t-1}; x_t] + b_f) \\\\
        i_t = \\sigma(W_i [h_{t-1}; x_t] + b_i) \\\\
        o_t = \\sigma(W_o [h_{t-1}; x_t] + b_o) \\\\
        c_t = f_t \\odot c_{t-1} + i_t \\odot \\tanh(W_c [h_{t-1}; x_t] + b_c) \\\\
        h_t = o_t \\odot \\tanh(c_t)

    The autograd state is one ``[h | c]`` block of width ``2 * hidden_size``
    (:meth:`forward`); the numpy inference steps thread ``(hidden, cell)``
    array pairs.
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

    def init_state(self) -> Tensor:
        """Return a zero ``[h | c]`` state block."""
        return Tensor(np.zeros(2 * self.hidden_size))

    def forward(self, x: Tensor, state: Optional[Tensor] = None) -> Tensor:
        """Advance one step: one graph node with a closed-form backward.

        ``x`` has shape ``(..., input_size)`` and ``state`` is the matching
        ``(..., 2 * hidden_size)`` ``[h | c]`` block (zeros when ``None``);
        returns the new ``[h | c]`` block.  A ``(B, ...)`` call steps ``B``
        independent cells.  The forward runs the gate GEMMs and activations
        of :meth:`step_inference`, which equal four separate ``Linear``
        gates, ``Tensor.sigmoid`` and ``Tensor.tanh`` bit for bit.  The
        backward, with ``g_h``/``g_c`` the upstream halves and ``t = tanh(c_t)``::

            dc = g_c + g_h ⊙ o ⊙ (1 − t²)
            dz_f = dc ⊙ c_{t-1} ⊙ f(1 − f)    dz_i = dc ⊙ ĉ ⊙ i(1 − i)
            dz_o = g_h ⊙ t ⊙ o(1 − o)          dz_c = dc ⊙ i ⊙ (1 − ĉ²)
            d[h_{t-1}; x_t] = Σ_g dz_g W_g     dc_{t-1} = dc ⊙ f

        with ``ĉ`` the candidate; the four ``dW_g = dz_gᵀ [h_{t-1}; x_t]``
        are one batched matmul and ``db_g = Σ dz_g`` sums over the leading
        axes.  Like ``Tensor.sigmoid``, the gate derivatives ignore the
        logit clip.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        width = self.hidden_size
        lead = x.shape[:-1]
        if state is None:
            state = Tensor(np.zeros(lead + (2 * width,)))
        cell = state.data[..., width:]
        combined = np.concatenate([state.data[..., :width], x.data], axis=-1)
        sigmoids, candidate = self._gate_activations(combined)
        forget, inp, out = sigmoids
        block = np.empty(lead + (2 * width,))
        np.add(forget * cell, inp * candidate, out=block[..., width:])
        tanh_cell = np.tanh(block[..., width:])
        np.multiply(out, tanh_cell, out=block[..., :width])
        layers = self._gate_layers()

        def backward(grad: np.ndarray) -> None:
            grad_hidden = grad[..., :width]
            d_cell = grad_hidden * out
            d_cell *= 1.0 - tanh_cell * tanh_cell
            d_cell += grad[..., width:]
            # Pre-activation gradients, gate-major: one (4, ..., hidden) buffer.
            d_gates = np.empty((4,) + lead + (width,))
            np.multiply(d_cell, cell, out=d_gates[0])
            np.multiply(d_cell, candidate, out=d_gates[1])
            np.multiply(grad_hidden, tanh_cell, out=d_gates[2])
            d_gates[:3] *= sigmoids * (1.0 - sigmoids)
            np.multiply(d_cell, inp, out=d_gates[3])
            d_gates[3] *= 1.0 - candidate * candidate
            rows = d_gates.reshape(4, -1, width)
            d_weights = rows.transpose(0, 2, 1) @ combined.reshape(-1, combined.shape[-1])
            d_biases = rows.sum(axis=1)
            for layer, d_weight, d_bias in zip(layers, d_weights, d_biases):
                # Disjoint views of the two fresh buffers.
                if layer.weight.requires_grad:
                    layer.weight._accumulate(d_weight, owned=True)
                if layer.bias.requires_grad:
                    layer.bias._accumulate(d_bias, owned=True)
            if not (x.requires_grad or state.requires_grad):
                return
            d_combined = d_gates[0] @ layers[0].weight.data
            for gate in range(1, 4):
                d_combined += d_gates[gate] @ layers[gate].weight.data
            if x.requires_grad:
                x._accumulate(d_combined[..., width:], owned=True)
            if state.requires_grad:
                d_state = np.empty(lead + (2 * width,))
                d_state[..., :width] = d_combined[..., :width]
                np.multiply(d_cell, forget, out=d_state[..., width:])
                state._accumulate(d_state, owned=True)

        parents = [x, state]
        for layer in layers:
            parents += [layer.weight, layer.bias]
        return Tensor._make(block, parents, backward)

    def init_state_inference(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero (hidden, cell) state as raw arrays for the no-grad fast path."""
        return np.zeros(self.hidden_size), np.zeros(self.hidden_size)

    def step_inference(
        self, x: np.ndarray, state: Tuple[np.ndarray, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one step on raw arrays, mirroring :meth:`forward` numerics."""
        hidden, cell = state
        return self._gates_inference(np.concatenate([hidden, x]), cell)

    def step_batch_inference(
        self, xs: np.ndarray, states
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One step for ``B`` *independent* cells in a single GEMM per gate.

        ``xs`` has shape ``(B, input_size)`` and ``states`` is a sequence of
        ``B`` ``(hidden, cell)`` pairs (one per stream).  Returns the stacked
        ``(B, hidden)`` / ``(B, cell)`` arrays; per-row numerics match
        :meth:`step_inference` up to BLAS summation order, and the values
        equal four separate ``Linear`` gates over the stacked rows bit for
        bit.
        """
        hidden = np.stack([state[0] for state in states])
        cell = np.stack([state[1] for state in states])
        return self._gates_inference(np.concatenate([hidden, xs], axis=-1), cell)

    def _gate_layers(self) -> Tuple[Linear, Linear, Linear, Linear]:
        return (self.forget_gate, self.input_gate, self.output_gate, self.cell_gate)

    def _gate_activations(self, combined: np.ndarray):
        """``(sigmoid gates, candidate)`` of ``(..., in + hidden)`` rows.

        Each gate's GEMM writes its row of one ``(4, ..., hidden)`` buffer
        and its bias is added in place; one sigmoid covers the forget, input
        and output rows (the ``(3, ..., hidden)`` first value) and one tanh
        the candidate.  Those are the BLAS calls and elementwise ops of four
        separate ``Linear`` gates, so the values equal the per-gate form bit
        for bit.  One packed ``(in + hidden, 4 * hidden)`` GEMM would not:
        BLAS rounds it differently at hidden sizes that miss its kernel
        width.
        """
        gates = np.empty((4,) + combined.shape[:-1] + (self.hidden_size,))
        for slot, layer in zip(gates, self._gate_layers()):
            np.matmul(combined, layer.weight.data.T, out=slot)
            slot += layer.bias.data
        return F.sigmoid_array(gates[:3]), np.tanh(gates[3])

    def _gates_inference(
        self, combined: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cell arithmetic of both numpy steps on ``(..., in + hidden)`` rows."""
        (forget, inp, out), candidate = self._gate_activations(combined)
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
        self, inputs: Tensor, state: Optional[Tensor] = None
    ) -> Tuple[Tensor, Tensor]:
        """Encode ``inputs`` of shape ``(T, input_size)``, one cell node per step.

        ``state`` is an initial ``[h | c]`` block (zeros when ``None``).
        Returns ``(outputs, state)`` where ``outputs`` has shape
        ``(T, hidden_size)`` and ``state`` is the final step's ``[h | c]``
        block.
        """
        blocks: List[Tensor] = []
        current = state
        for t in range(inputs.shape[0]):
            current = self.cell(inputs[t], current)
            blocks.append(current)
        outputs = Tensor.stack(blocks, axis=0)[:, : self.hidden_size]
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

"""Embedding fusion (Section IV-B, "Embedding Fusion").

After the attention encoder produces a refined embedding for every observed
item, the representation of each key-value sequence ``S_k`` must be updated
from the new item's embedding:

.. math:: s_k^{(t)} = \\text{Fusion}(s_k^{(t-1)}, E^{(t)}_{e_t}).

The paper implements Fusion as an LSTM-style multiple gating mechanism
(:class:`GatedFusion`).  Parameter-free alternatives (:class:`MeanFusion`,
:class:`LastItemFusion`) are provided because the paper explicitly notes that
simple addition/averaging fuses noise and performs worse — the
``bench_ablation_fusion`` benchmark measures that claim.

Each fusion has two forms.  The autograd form, which training runs, folds
``B`` independent streams at once (:meth:`~GatedFusion.step`): a stream's
state is one row of ``state_width`` columns — gated ``[h | c]``, mean
``[sum | count]``, last ``[x]`` — and for every kind the zero row is the
initial state, so the lockstep runner keeps each round's states as one
stacked block and gathers the rows it needs.  :meth:`~GatedFusion.representation`
turns a block of states into rows whose leading ``d_state`` columns are
``s_k^{(t)}``.  The numpy form (``forward_inference`` and
``forward_inference_batch``), which prediction and serving run, threads
per-stream array tuples.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor


class GatedFusion(Module):
    """LSTM-style gated fusion of item embeddings into a sequence state."""

    def __init__(self, d_model: int, d_state: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.d_state = d_state
        self.state_width = 2 * d_state
        self.cell = LSTMCell(d_model, d_state, rng=rng)

    def step(self, states: Tensor, item_embeddings: Tensor) -> Tensor:
        """Fold ``(B, d_model)`` item embeddings into ``(B, 2 * d_state)``
        ``[h | c]`` state rows of independent streams: one LSTM cell node
        (:meth:`repro.nn.recurrent.LSTMCell.forward`).

        Per-row numerics match :meth:`forward_inference_batch` up to BLAS
        summation order.
        """
        return self.cell(item_embeddings, states)

    def representation(self, states: Tensor) -> Tensor:
        """The ``[h | c]`` rows themselves: ``s_k^{(t)}`` is ``h``, their
        leading ``d_state`` columns."""
        return states

    def initial_state_inference(self) -> Tuple[np.ndarray, ...]:
        return self.cell.init_state_inference()

    def forward_inference(
        self, state: Tuple[np.ndarray, ...], item_embedding: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Raw-array fusion step of one stream."""
        hidden, cell = self.cell.step_inference(item_embedding, state)
        return hidden, (hidden, cell)

    def forward_inference_batch(self, states, item_embeddings: np.ndarray):
        """Fusion step for ``B`` independent streams in one gate GEMM.

        ``states`` is a sequence of ``B`` fusion states and
        ``item_embeddings`` a ``(B, d_model)`` array.  Returns
        ``(representations, new_states)`` with per-row numerics matching
        :meth:`forward_inference` up to BLAS summation order.
        """
        hidden, cell = self.cell.step_batch_inference(item_embeddings, states)
        new_states = [(hidden[i], cell[i]) for i in range(len(states))]
        return hidden, new_states


class MeanFusion(Module):
    """Parameter-free fusion: the running mean of observed item embeddings."""

    def __init__(self, d_model: int, d_state: Optional[int] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.d_state = d_state or d_model
        self.state_width = d_model + 1

    def step(self, states: Tensor, item_embeddings: Tensor) -> Tensor:
        """Add ``(B, d_model)`` item embeddings to ``(B, d_model + 1)``
        ``[sum | count]`` rows; per-row numerics match
        :meth:`forward_inference_batch`."""
        ones = Tensor(np.ones(item_embeddings.shape[:-1] + (1,)))
        return states + Tensor.concatenate([item_embeddings, ones], axis=-1)

    def representation(self, states: Tensor) -> Tensor:
        """The running means ``sum / count`` of ``[sum | count]`` rows."""
        return states[..., : self.d_model] / states[..., self.d_model :]

    def initial_state_inference(self) -> Tuple[np.ndarray, ...]:
        return (np.zeros(self.d_model), np.zeros(1))

    def forward_inference(
        self, state: Tuple[np.ndarray, ...], item_embedding: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        running_sum, count = state
        new_sum = running_sum + item_embedding
        new_count = count + 1.0
        return new_sum / new_count, (new_sum, new_count)

    def forward_inference_batch(self, states, item_embeddings: np.ndarray):
        """Vectorised fusion step for ``B`` independent streams."""
        sums = np.stack([state[0] for state in states]) + item_embeddings
        counts = np.stack([state[1] for state in states]) + 1.0
        representations = sums / counts
        new_states = [(sums[i], counts[i]) for i in range(len(states))]
        return representations, new_states


class LastItemFusion(Module):
    """Parameter-free fusion: the sequence is represented by its latest item."""

    def __init__(self, d_model: int, d_state: Optional[int] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.d_state = d_state or d_model
        self.state_width = d_model

    def step(self, states: Tensor, item_embeddings: Tensor) -> Tensor:
        """The new state rows are the ``(B, d_model)`` item embeddings."""
        return item_embeddings

    def representation(self, states: Tensor) -> Tensor:
        """The ``[x]`` rows themselves."""
        return states

    def initial_state_inference(self) -> Tuple[np.ndarray, ...]:
        return (np.zeros(self.d_model),)

    def forward_inference(
        self, state: Tuple[np.ndarray, ...], item_embedding: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        return item_embedding, (item_embedding,)

    def forward_inference_batch(self, states, item_embeddings: np.ndarray):
        """Vectorised fusion step for ``B`` independent streams."""
        new_states = [(item_embeddings[i],) for i in range(len(states))]
        return item_embeddings, new_states


def make_fusion(kind: str, d_model: int, d_state: int, rng: Optional[np.random.Generator] = None) -> Module:
    """Factory for fusion modules by name (``"gated"``, ``"mean"``, ``"last"``)."""
    if kind == "gated":
        return GatedFusion(d_model, d_state, rng=rng)
    if kind == "mean":
        return MeanFusion(d_model, d_state)
    if kind == "last":
        return LastItemFusion(d_model, d_state)
    raise ValueError(f"unknown fusion kind {kind!r}")

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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor

#: A fusion state is whatever a fusion module threads between steps.
FusionState = Tuple[Tensor, ...]


class GatedFusion(Module):
    """LSTM-style gated fusion of item embeddings into a sequence state."""

    def __init__(self, d_model: int, d_state: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.d_state = d_state
        self.cell = LSTMCell(d_model, d_state, rng=rng)

    def initial_state(self) -> FusionState:
        """Zero (hidden, cell) state for a sequence with no observed items."""
        return self.cell.init_state()

    def forward_batch(self, states, item_embeddings: Tensor):
        """Fold ``item_embeddings`` into ``states``: the autograd forward.

        ``states`` is a sequence of ``B`` fusion states (tensor pairs) from
        *independent* key-value sequences and ``item_embeddings`` a
        ``(B, d_model)`` graph tensor; the gates run as one GEMM.  Returns
        ``(representations, (hidden, cell))`` where ``representations`` is
        the stacked ``(B, d_state)`` LSTM hidden tensor ``s_k^{(t)}`` and
        the new state is left *stacked* — the batched-episode runner slices
        per-stream rows out lazily with :meth:`split_state`, only for
        streams that survive into the next round.  Per-row numerics match
        :meth:`forward_inference_batch` up to BLAS summation order.
        """
        hidden, cell = self.cell.step_batch(item_embeddings, states)
        return hidden, (hidden, cell)

    def split_state(self, stacked_state, row: int) -> FusionState:
        """One stream's ``(hidden, cell)`` slice of a stacked batch state."""
        hidden, cell = stacked_state
        return (hidden[row], cell[row])

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

    def initial_state(self) -> FusionState:
        return (Tensor(np.zeros(self.d_model)), Tensor(np.zeros(1)))

    def forward_batch(self, states, item_embeddings: Tensor):
        """The autograd forward: running means of ``B`` independent streams.

        Per-row numerics match :meth:`forward_inference_batch`; the new
        state stays stacked (see :meth:`GatedFusion.forward_batch`).
        """
        sums = Tensor.stack([state[0] for state in states]) + item_embeddings
        counts = Tensor.stack([state[1] for state in states]) + 1.0
        return sums / counts, (sums, counts)

    def split_state(self, stacked_state, row: int) -> FusionState:
        """One stream's ``(sum, count)`` slice of a stacked batch state."""
        sums, counts = stacked_state
        return (sums[row], counts[row])

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

    def initial_state(self) -> FusionState:
        return (Tensor(np.zeros(self.d_model)),)

    def forward_batch(self, states, item_embeddings: Tensor):
        """The autograd forward of ``B`` independent streams (an identity)."""
        return item_embeddings, (item_embeddings,)

    def split_state(self, stacked_state, row: int) -> FusionState:
        """One stream's ``(embedding,)`` slice of a stacked batch state."""
        return (stacked_state[0][row],)

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

"""ECTL: the halting policy and its variance-reduction baseline (Section IV-C).

The halting policy maps the current sequence representation ``s_k^{(t)}`` to
the probability of taking the **Halt** action; **Wait** has the complementary
probability.  During training, actions are sampled and the policy is updated
with REINFORCE using a learned state-value baseline; at evaluation time the
policy halts deterministically once the halting probability exceeds a
threshold (0.5 unless stated otherwise).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor

#: Action encoding used across the package.
ACTION_WAIT = 0
ACTION_HALT = 1


class HaltingPolicy(Module):
    """The halting policy π(s) = σ(w·s + b).

    ``forward`` returns the halting probability as a scalar tensor that stays
    differentiable, so ``log P(a | s)`` terms can be built for REINFORCE.
    """

    def __init__(self, d_state: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.projection = Linear(d_state, 1, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        """Halting probability for a single state vector of shape ``(d_state,)``."""
        return F.sigmoid(self.projection(state)).reshape(())

    def forward_batch(self, states: Tensor) -> Tensor:
        """Autograd batched head: halting probabilities for ``(B, d_state)``.

        Parity contract: row ``i`` matches :meth:`forward` on ``states[i]``
        up to BLAS summation order (one ``(B, d_state)`` GEMV batch instead
        of ``B`` scalar projections).
        """
        return F.sigmoid(self.projection(states)).squeeze(-1)

    def log_probs_batch(self, probabilities: Tensor):
        """Differentiable ``(log P(Halt|s), log P(Wait|s))`` for a batch.

        ``probabilities`` is the ``(B,)`` output of :meth:`forward_batch`;
        the clip bound matches :meth:`log_prob` exactly, so per-row values
        agree with it for either action.
        """
        clipped = probabilities.clip(1e-7, 1.0 - 1e-7)
        return clipped.log(), (1.0 - clipped).log()

    def halt_probability_inference(self, state: np.ndarray) -> float:
        """No-grad fast path: halting probability from a raw state vector."""
        return float(F.sigmoid_array(self.projection.forward_inference(state)[0]))

    def halt_probabilities_inference(self, states: np.ndarray) -> np.ndarray:
        """No-grad fast path: halting probabilities for ``(n, d_state)`` states."""
        return F.sigmoid_array(self.projection.forward_inference(states)[:, 0])

    def log_prob(self, state: Tensor, action: int) -> Tensor:
        """Differentiable ``log P(action | state)``."""
        probability = self.forward(state).clip(1e-7, 1.0 - 1e-7)
        if action == ACTION_HALT:
            return probability.log()
        return (1.0 - probability).log()


class BaselineValue(Module):
    """A shallow feed-forward state-value baseline ``b(s)``.

    The baseline is trained by regression against the observed returns and is
    used only to reduce the variance of the REINFORCE gradient (the advantage
    ``R - b`` is treated as a constant when updating the policy).
    """

    def __init__(self, d_state: int, hidden: int = 32, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.hidden_layer = Linear(d_state, hidden, rng=rng)
        self.output_layer = Linear(hidden, 1, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        """Estimated return(s) for ``state``.

        Accepts a single ``(d_state,)`` vector (returns a scalar tensor) or a
        batch of shape ``(n, d_state)`` (returns an ``(n,)`` tensor), so the
        trainer can evaluate every episode step in one pass.
        """
        hidden = F.relu(self.hidden_layer(state))
        out = self.output_layer(hidden)
        if out.ndim == 1:
            return out.reshape(())
        return out.squeeze(-1)

    def value(self, state: Tensor) -> float:
        return float(self.forward(state).data)

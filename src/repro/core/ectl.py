"""ECTL: the halting policy and its variance-reduction baseline (Section IV-C).

The halting policy maps the current sequence representation ``s_k^{(t)}`` to
the probability of taking the **Halt** action; **Wait** has the complementary
probability.  During training, actions are sampled and the policy is updated
with REINFORCE using a learned state-value baseline; at evaluation time the
policy halts deterministically once the halting probability exceeds a
threshold (0.5 unless stated otherwise).  The training runner reads a whole
round's halting probabilities and both log-probabilities from one graph node
(:meth:`HaltingPolicy.head`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import SIGMOID_CLIP, Tensor

#: Action encoding used across the package.
ACTION_WAIT = 0
ACTION_HALT = 1

#: ``log P(action | s)`` clips the halting probability to
#: ``[PROBABILITY_CLIP, 1 - PROBABILITY_CLIP]`` so neither log is infinite.
PROBABILITY_CLIP = 1e-7


class HaltingPolicy(Module):
    """The halting policy π(s) = σ(w·s + b).

    ``forward`` returns the halting probability as a scalar tensor that stays
    differentiable, so ``log P(a | s)`` terms can be built for REINFORCE;
    :meth:`head` gives a batch of states both log-probabilities at once.
    """

    def __init__(self, d_state: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.projection = Linear(d_state, 1, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        """Halting probability for a single state vector of shape ``(d_state,)``."""
        return F.sigmoid(self.projection(state)).reshape(())

    def head(self, states: Tensor) -> Tensor:
        """``[p, log p, log(1 − p)]`` for every state row, as one graph node.

        ``states`` is ``(..., width)`` with ``width >= d_state``; the head
        reads the leading ``d_state`` columns (the gated fusion's
        ``[h | c]`` rows carry the cell state after them).  ``p`` is the
        halting probability and the logs are ``log P(Halt | s)`` and
        ``log P(Wait | s)`` under :meth:`log_prob`'s clip of ``p`` to
        ``[1e-7, 1 − 1e-7]``.  The forward runs the ops of
        :meth:`forward` and :meth:`log_prob`, so it equals them bit for bit.
        The backward, with ``g`` the upstream ``(..., 3)`` gradient, ``q``
        the clipped ``p`` and ``m`` its in-range mask::

            dz = (g₀ + m ⊙ (g₁ / q − g₂ / (1 − q))) ⊙ p(1 − p)

        for the logit ``z``, then ``ds = dz w``, ``dw = dzᵀ s`` and
        ``db = Σ dz`` as in :func:`repro.nn.functional.linear`.
        """
        weight, bias = self.projection.weight, self.projection.bias
        width = weight.shape[1]
        rows = states.data[..., :width]
        logit = (rows @ weight.data.T + bias.data)[..., 0]
        probability = 1.0 / (1.0 + np.exp(-np.clip(logit, -SIGMOID_CLIP, SIGMOID_CLIP)))
        clipped = np.clip(probability, PROBABILITY_CLIP, 1.0 - PROBABILITY_CLIP)
        out = np.stack([probability, np.log(clipped), np.log(1.0 - clipped)], axis=-1)

        def backward(grad: np.ndarray) -> None:
            inside = (probability >= PROBABILITY_CLIP) & (probability <= 1.0 - PROBABILITY_CLIP)
            d_clipped = grad[..., 1] / clipped - grad[..., 2] / (1.0 - clipped)
            d_logit = (grad[..., 0] + d_clipped * inside) * probability * (1.0 - probability)
            flat = d_logit.reshape(-1, 1)
            if weight.requires_grad:
                weight._accumulate(flat.T @ rows.reshape(-1, width), owned=True)
            if bias.requires_grad:
                bias._accumulate(flat.sum(axis=0), owned=True)
            if states.requires_grad:
                d_states = np.zeros(states.shape)
                d_states[..., :width] = d_logit[..., None] * weight.data[0]
                states._accumulate(d_states, owned=True)

        return Tensor._make(out, (states, weight, bias), backward)

    def halt_probability_inference(self, state: np.ndarray) -> float:
        """No-grad fast path: halting probability from a raw state vector."""
        return float(F.sigmoid_array(self.projection.forward_inference(state)[0]))

    def halt_probabilities_inference(self, states: np.ndarray) -> np.ndarray:
        """No-grad fast path: halting probabilities for ``(n, d_state)`` states."""
        return F.sigmoid_array(self.projection.forward_inference(states)[:, 0])

    def log_prob(self, state: Tensor, action: int) -> Tensor:
        """Differentiable ``log P(action | state)``."""
        probability = self.forward(state).clip(PROBABILITY_CLIP, 1.0 - PROBABILITY_CLIP)
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

"""The classification network (Section IV-D).

A fully-connected layer followed by softmax maps a halted sequence's
representation to a probability distribution over the ``C`` class labels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class SequenceClassifier(Module):
    """Linear + softmax classifier over sequence representations."""

    def __init__(self, d_state: int, num_classes: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes
        self.projection = Linear(d_state, num_classes, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        """Unnormalised class scores (logits) for ``(..., d_state)`` states."""
        return self.projection(state)

    def probabilities_inference(self, state: np.ndarray) -> np.ndarray:
        """Class probability vector ``p_k`` from a raw state vector (no graph)."""
        return F.softmax_array(self.projection.forward_inference(state))

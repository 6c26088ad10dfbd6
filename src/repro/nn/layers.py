"""Core neural-network layers built on the autograd substrate.

Every layer here is polymorphic over leading batch dimensions: the same
module instance serves KVEC training (``(B, T, d)`` inputs, one GEMM across
the whole minibatch; there is no per-sample training path), the baselines'
per-sequence ``(T, d)`` calls, and serving.  A batched call computes, row
for row, the same values and gradients as the equivalent per-sample calls,
exactly where shapes permit and within 1e-8 otherwise (BLAS/bincount
summation order); ``tests/core/test_batched_training.py`` pins this against
a per-tangle reference.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine layer ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features:
        Size of the last dimension of the input.
    out_features:
        Size of the last dimension of the output.
    bias:
        Whether to add a learnable bias.
    rng:
        Random generator used for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map over the last dimension.

        Accepts any leading batch shape; a ``(B, T, in)`` call is the exact
        numerical twin of ``B`` separate ``(T, in)`` calls (one stacked GEMM,
        bit-identical rows)."""
        return F.linear(x, self.weight, self.bias)

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """No-grad fast path on raw arrays (no graph nodes, no closures)."""
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """A learned lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.02,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0:
            raise ValueError("num_embeddings must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=std, rng=rng))

    def forward(self, indices) -> Tensor:
        """Look up vectors for an integer id array of any shape.

        Batched ``(B, T)`` lookups match per-sample ``(T,)`` lookups exactly
        in the forward pass; the gradient scatter (bincount over the flattened
        ids) may reorder float additions across duplicate ids, so backward
        parity is within 1e-8 rather than bit-for-bit."""
        index_array = np.asarray(
            indices.data if isinstance(indices, Tensor) else indices
        ).astype(int)
        if index_array.size and (index_array.min() < 0 or index_array.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={index_array.min()}, max={index_array.max()}"
            )
        return F.embedding(self.weight, index_array)

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise over the last dimension only — per-row statistics, so
        batched and per-sample invocations are bit-identical twins.

        One graph node whose forward runs the ops of
        :meth:`forward_inference`, so the two agree bit for bit.  The
        closed-form backward, with ``x̂`` the normalised input, ``σ`` the
        row std and ``gw = g ⊙ w``::

            dx = (gw − mean(gw) − x̂ ⊙ mean(gw ⊙ x̂)) / σ

        (means over the last axis); ``dw = Σ g ⊙ x̂`` and ``db = Σ g`` sum
        over the leading axes.
        """
        normalised, std = self._normalise(x.data)
        weight, bias = self.weight, self.bias

        def backward(grad: np.ndarray) -> None:
            width = grad.shape[-1]
            if weight.requires_grad:
                weight._accumulate((grad * normalised).reshape(-1, width).sum(axis=0), owned=True)
            if bias.requires_grad:
                bias._accumulate(grad.reshape(-1, width).sum(axis=0), owned=True)
            if x.requires_grad:
                scaled = grad * weight.data
                d_x = scaled - scaled.mean(axis=-1, keepdims=True)
                d_x -= normalised * (scaled * normalised).mean(axis=-1, keepdims=True)
                d_x /= std
                x._accumulate(d_x, owned=True)

        out = normalised * weight.data + bias.data
        return Tensor._make(out, (x, weight, bias), backward)

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """No-grad fast path: the forward numerics of :meth:`forward`."""
        normalised, _ = self._normalise(x)
        return normalised * self.weight.data + self.bias.data

    def _normalise(self, x: np.ndarray):
        """Return ``((x - mean) / std, std)`` over the last axis."""
        mean = x.sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
        centred = x - mean
        var = (centred**2).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
        std = (var + self.eps) ** 0.5
        return centred / std, std

    def __repr__(self) -> str:
        return f"LayerNorm(dim={self.normalized_shape})"


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Apply a list of modules (or callables) in order."""

    def __init__(self, *layers) -> None:
        super().__init__()
        self._layers = ModuleList([layer for layer in layers if isinstance(layer, Module)])
        self._order: Sequence = layers

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._order:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._order)


class FeedForward(Module):
    """The two-layer position-wise feed-forward network used in KVRL blocks.

    ``FFN(x) = W2 * relu(W1 x + b1) + b2`` as written in the paper, with an
    optional dropout applied to the hidden activation.
    """

    def __init__(
        self,
        d_model: int,
        d_hidden: Optional[int] = None,
        dropout: float = 0.0,
        activation: Callable[[Tensor], Tensor] = F.relu,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        d_hidden = d_hidden or 4 * d_model
        self.linear1 = Linear(d_model, d_hidden, rng=rng)
        self.linear2 = Linear(d_hidden, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        """Position-wise map over the last dimension; batched ``(B, T, d)``
        calls are bit-identical to per-sample ``(T, d)`` calls.  Under
        dropout the mask draw order differs between the two shapes, so
        exact parity requires ``dropout == 0``."""
        hidden = self.activation(self.linear1(x))
        if self.dropout is not None:
            hidden = self.dropout(hidden)
        return self.linear2(hidden)

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """No-grad fast path (evaluation mode: dropout is a no-op)."""
        hidden = self.linear1.forward_inference(x)
        if self.activation is F.relu:
            np.maximum(hidden, 0.0, out=hidden)
        else:
            hidden = self.activation(Tensor(hidden)).data
        return self.linear2.forward_inference(hidden)

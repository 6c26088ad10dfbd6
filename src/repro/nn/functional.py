"""Composed differentiable operations used across the KVEC reproduction.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects.  Most
build the computation graph through the primitive operations defined on
``Tensor``; the hot ones (:func:`linear`, :func:`embedding`,
:func:`gather_rows`) are one graph node each with a closed-form backward.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.tensor import SIGMOID_CLIP, Tensor

ArrayLike = Union[Tensor, np.ndarray, list, tuple, float, int]


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _as_tensor(x).tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = _as_tensor(x)
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * 0.5 * (inner.tanh() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# --------------------------------------------------------------------------- #
# raw-array inference helpers (no-grad fast path)
# --------------------------------------------------------------------------- #
def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Raw-array sigmoid matching :meth:`Tensor.sigmoid` numerics exactly.

    Every no-grad fast path must use this (not a re-implementation) so
    fast/reference parity cannot drift; the shared clip bound lives in
    :data:`repro.nn.tensor.SIGMOID_CLIP`.  The clamp is spelled as two
    ufuncs rather than ``np.clip``: the value is the same for every input
    (±0, ±inf and NaN included) without ``np.clip``'s Python-level
    dispatch, which dominates at the fusion gates' small sizes.
    """
    clipped = np.minimum(np.maximum(x, -SIGMOID_CLIP), SIGMOID_CLIP)
    return 1.0 / (1.0 + np.exp(-clipped))


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Raw-array softmax over the last axis matching :func:`softmax` numerics."""
    shifted = x - x.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


# --------------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` of shape (N, C) and integer ``targets``.

    Parameters
    ----------
    logits:
        Unnormalised class scores of shape ``(N, C)``.
    targets:
        Integer class labels of shape ``(N,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    logits = _as_tensor(logits)
    target_idx = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets
    ).astype(int)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(len(target_idx)), target_idx]
    losses = -picked
    return _reduce(losses, reduction)


def nll_loss(log_probs: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood from already-log-normalised probabilities."""
    log_probs = _as_tensor(log_probs)
    target_idx = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets
    ).astype(int)
    picked = log_probs[np.arange(len(target_idx)), target_idx]
    return _reduce(-picked, reduction)


def binary_cross_entropy(probs: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on probabilities in (0, 1)."""
    probs = _as_tensor(probs).clip(1e-9, 1.0 - 1e-9)
    targets = _as_tensor(targets)
    losses = -(targets * probs.log() + (1.0 - targets) * (1.0 - probs).log())
    return _reduce(losses, reduction)


def mse_loss(prediction: Tensor, target: ArrayLike, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    prediction = _as_tensor(prediction)
    target = _as_tensor(target)
    losses = (prediction - target) ** 2
    return _reduce(losses, reduction)


def _reduce(losses: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


# --------------------------------------------------------------------------- #
# embedding and dropout
# --------------------------------------------------------------------------- #
def embedding(weight: Tensor, indices: ArrayLike) -> Tensor:
    """Look up rows of ``weight`` (V, D) by integer ``indices``.

    The gradient is scattered back into the rows that were selected with
    one ``np.bincount`` over the flat cell number ``index * D + column``.
    It adds every cell's contributions in index order starting from zero,
    as ``np.add.at`` does, so the sums are bit-identical to it.
    """
    weight = _as_tensor(weight)
    index_array = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices
    ).astype(int)
    if weight.ndim != 2:
        return weight[index_array]
    out_data = weight.data[index_array]
    rows, cols = weight.data.shape

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        cells = (index_array.reshape(-1, 1) * cols + np.arange(cols)).reshape(-1)
        full = np.bincount(cells, weights=grad.reshape(-1), minlength=rows * cols)
        weight._accumulate(full.reshape(rows, cols), owned=True)

    return Tensor._make(out_data, (weight,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


# --------------------------------------------------------------------------- #
# misc
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (mirrors ``torch.nn.functional.linear``).

    One graph node over any leading shape of ``x``.  The forward runs the
    same ops as :meth:`repro.nn.layers.Linear.forward_inference`, so the
    two paths agree bit for bit.  The closed-form backward, with ``g`` the
    upstream gradient and ``g₂``/``x₂`` the flattened ``(N, ·)`` views over
    the leading axes: ``dx = g @ W``, ``dW = g₂ᵀ x₂`` (one GEMM) and
    ``db = Σ g`` over the leading axes.
    """
    x = _as_tensor(x)
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data, owned=True)
        flat_grad = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            weight._accumulate(flat_grad.T @ x.data.reshape(-1, x.shape[-1]), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(flat_grad.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


def gather_rows(
    sources: Sequence[Tensor], picks: Sequence[Tuple[int, int]], width: Optional[int] = None
) -> Tensor:
    """Rows of several 2-D tensors as one ``(len(picks), width)`` graph node.

    Row ``k`` of the result is the leading ``width`` columns (every column
    when ``None``) of row ``r`` of ``sources[s]``, for ``picks[k] == (s, r)``.
    The parents are the sources picked from; the backward adds each upstream
    row into a fresh zero buffer per parent, at the row it came from.
    """
    if width is None:
        width = sources[picks[0][0]].shape[1]
    columns = slice(None, width)
    out = np.empty((len(picks), width))
    slots: Dict[int, int] = {}
    parents: List[Tensor] = []
    local: List[Tuple[int, int]] = []
    for position, (source, row) in enumerate(picks):
        slot = slots.get(source)
        if slot is None:
            slot = slots[source] = len(parents)
            parents.append(sources[source])
        local.append((slot, row))
        out[position] = parents[slot].data[row, columns]

    def backward(grad: np.ndarray) -> None:
        buffers: List[Optional[np.ndarray]] = [None] * len(parents)
        for position, (slot, row) in enumerate(local):
            parent = parents[slot]
            if not parent.requires_grad:
                continue
            if buffers[slot] is None:
                buffers[slot] = np.zeros_like(parent.data)
            buffers[slot][row, columns] += grad[position]
        for parent, buffer in zip(parents, buffers):
            if buffer is not None:
                parent._accumulate(buffer, owned=True)

    return Tensor._make(out, parents, backward)


def one_hot(indices: ArrayLike, num_classes: int) -> np.ndarray:
    """Return a one-hot encoded float array for integer ``indices``."""
    index_array = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices
    ).astype(int)
    out = np.zeros((index_array.size, num_classes), dtype=np.float64)
    out[np.arange(index_array.size), index_array.reshape(-1)] = 1.0
    return out.reshape(*index_array.shape, num_classes)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return Tensor.concatenate(tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    return Tensor.stack(tensors, axis=axis)

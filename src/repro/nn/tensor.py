"""Reverse-mode automatic differentiation on top of numpy arrays.

The :class:`Tensor` class records a dynamic computation graph as operations
are applied and computes gradients with :meth:`Tensor.backward`.  Only the
operations needed by the KVEC reproduction are implemented, but they are
implemented with full broadcasting support so that model code stays natural.

Example
-------
>>> from repro.nn.tensor import Tensor
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * 3.0 + 1.0).sum()
>>> y.backward()
>>> x.grad.tolist()
[[3.0, 3.0]]
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

#: Logit clip bound shared by :meth:`Tensor.sigmoid` and the no-grad
#: :func:`repro.nn.functional.sigmoid_array` so the two paths cannot drift.
SIGMOID_CLIP = 60.0

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Used during evaluation so the computation graph is not kept alive.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can both prepend dimensions and stretch size-1 dimensions;
    the gradient of a broadcast input is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over stretched axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is an int, a slice, or a tuple of these.

    Such an index selects each element at most once.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(part, (int, np.integer, slice)) for part in parts)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = _backward
        self._parents = tuple(_parents) if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=[p for p in parents if p.requires_grad] if requires else (),
            _backward=backward if requires else None,
        )

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        if self.grad is None:
            if owned and isinstance(grad, np.ndarray) and grad.dtype == np.float64:
                # The caller guarantees ``grad`` is a freshly allocated buffer
                # nothing else references (not a view of another node's
                # gradient), so it can be adopted without the defensive copy.
                self.grad = grad
            else:
                # Copy: the incoming buffer may be (or alias) another node's
                # gradient, which in-place accumulation would corrupt.
                self.grad = np.array(grad, dtype=np.float64, copy=True)
        elif self.grad.shape == np.shape(grad):
            self.grad += grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # An intermediate's gradient is fully consumed once its
                # closure has run: drop the reference so closures may donate
                # the buffer (or views of it) to a parent via owned
                # accumulation, and so peak memory stays bounded.  Leaves
                # (parameters, inputs) have no closure and keep their grads.
                node.grad = None

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            # The upstream buffer is donated by the engine, but only one
            # parent may adopt it; when both parents need the un-broadcast
            # alias the first takes a copy and the second adopts.
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, owned=g is not grad or not other.requires_grad)
            if other.requires_grad:
                g = _unbroadcast(grad, other.shape)
                other._accumulate(g, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # other's gradient (if any) is freshly negated, so the
                # upstream buffer can always be adopted here.
                self._accumulate(_unbroadcast(grad, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape),
                    owned=True,
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with batched-matmul gradient support."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data)
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.shape), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.multiply.outer(self.data, grad)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -SIGMOID_CLIP, SIGMOID_CLIP)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is passed through inside the range."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                g = np.broadcast_to(g, self.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
                g = np.broadcast_to(g, self.shape)
            self._accumulate(np.array(g, dtype=np.float64), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                mask = self.data == out_data
                g = np.broadcast_to(g, self.shape) * mask / mask.sum()
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                mask = self.data == expanded
                counts = mask.sum(axis=axis, keepdims=True)
                g_exp = g if keepdims else np.expand_dims(g, axis=axis)
                g = np.broadcast_to(g_exp, self.shape) * mask / counts
            self._accumulate(np.array(g, dtype=np.float64), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if _is_basic_index(index):
                    full[index] += grad
                else:
                    # Fancy indices may repeat an element: np.add.at sums
                    # every occurrence where ``+=`` would keep only one.
                    np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = self.data.squeeze(axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    # Disjoint view of the donated upstream buffer.
                    tensor._accumulate(grad[tuple(slicer)], owned=True)

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            moved = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, moved):
                if tensor.requires_grad:
                    # Disjoint view of the donated upstream buffer.
                    tensor._accumulate(piece, owned=True)

        return Tensor._make(out_data, tensors, backward)

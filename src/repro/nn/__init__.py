"""A minimal, self-contained neural-network substrate built on numpy.

The paper trains its models with PyTorch on GPU.  No deep-learning framework
is available in this environment, so ``repro.nn`` implements the required
subset from scratch:

* :class:`~repro.nn.tensor.Tensor` — a reverse-mode autograd tensor,
* :mod:`~repro.nn.functional` — composed differentiable operations,
* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter` —
  the familiar layer abstraction,
* layers (:class:`Linear`, :class:`Embedding`, :class:`LayerNorm`,
  :class:`Dropout`, :class:`Sequential`, :class:`FeedForward`),
* :class:`~repro.nn.attention.MultiHeadAttention` with additive masks,
* :class:`~repro.nn.recurrent.LSTMCell` and :class:`~repro.nn.recurrent.LSTM`,
* optimizers (:class:`SGD`, :class:`Adam`) and gradient clipping,
* weight initialisation and ``state_dict`` style serialization.

The API deliberately mirrors (a small part of) ``torch.nn`` so the KVEC model
code reads like the paper's reference implementation would.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Sequential,
)
from repro.nn.attention import MultiHeadAttention, causal_mask
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn import init
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "FeedForward",
    "MultiHeadAttention",
    "causal_mask",
    "LSTM",
    "LSTMCell",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "init",
    "save_state_dict",
    "load_state_dict",
]

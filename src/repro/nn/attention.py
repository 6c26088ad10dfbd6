"""Masked (multi-head) self-attention used by KVRL and the SRN baselines.

The paper's KVRL module modifies standard self-attention by adding a dynamic
mask matrix ``M`` (values in ``{0, -inf}``) to the attention scores before the
softmax, so that an item can only attend to earlier items it is correlated
with through the key correlation or value correlation.  This module provides
that additive-mask attention plus a convenience causal mask.

Eviction-stable relative encodings
----------------------------------
With ``rotary=True`` the module additionally supports the serving-oriented
relative scheme (``KVECConfig.encoding="rotary"``): queries and keys are
phase-rotated by each item's *global arrival index* (rotary position
embedding — logits then depend only on arrival-index differences), and a
learned per-head bias indexed by the relative position *within the same key
sequence* is added to the scores (zero for cross-key pairs).  Both signals
are invariant under dropping the oldest items, so a streaming K/V cache of
rotated keys stays valid across window evictions.

Every entry point takes the rotary inputs in one form, which the caller
builds once and every block of a stack shares: ``phases``, the
:func:`rotary_phases` ``(cos, sin)`` pair of the rows' arrival indices, and
``delta`` / ``same``, each row's clipped within-key rank differences
(:meth:`MultiHeadAttention.clip_rank_delta`) and same-key indicator against
the rows it attends to.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dropout, Embedding, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, _unbroadcast

#: Value used for masked-out attention logits.  A large negative finite number
#: is used instead of ``-inf`` so that fully-masked rows do not produce NaNs.
MASK_VALUE = -1e9

#: Wavelength base of the rotary phase spectrum (the standard RoPE base).
ROTARY_BASE = 10000.0


def rotary_frequencies(d_head: int, base: float = ROTARY_BASE) -> np.ndarray:
    """Per-pair angular frequencies for a ``d_head``-dimensional rotation.

    Dimensions are rotated in interleaved pairs ``(0,1), (2,3), ...``; an odd
    trailing dimension is left unrotated.
    """
    half = d_head // 2
    if half == 0:
        return np.zeros(0, dtype=np.float64)
    return base ** (-np.arange(half, dtype=np.float64) * 2.0 / d_head)


def rotary_phases(positions: np.ndarray, d_head: int, base: float = ROTARY_BASE) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(cos, sin)`` arrays of shape ``(T, d_head)`` for the positions.

    The trailing dimension of an odd ``d_head`` gets ``cos=1, sin=0`` so it
    passes through the rotation unchanged.
    """
    positions = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    half = d_head // 2
    cos = np.ones((positions.shape[0], d_head), dtype=np.float64)
    sin = np.zeros((positions.shape[0], d_head), dtype=np.float64)
    if half:
        angles = np.outer(positions, rotary_frequencies(d_head, base=base))
        cos[:, : 2 * half] = np.repeat(np.cos(angles), 2, axis=1)
        sin[:, : 2 * half] = np.repeat(np.sin(angles), 2, axis=1)
    return cos, sin


def rotate_half_matrix(d_head: int) -> np.ndarray:
    """Constant matrix ``R`` with ``x @ R == rotate_half(x)``.

    ``rotate_half`` maps interleaved pairs ``(x1, x2)`` to ``(-x2, x1)``; as a
    matmul it also works on autograd tensors, giving the rotary rotation
    ``rot(x) = x * cos + (x @ R) * sin`` on both the graph and no-grad paths.
    """
    matrix = np.zeros((d_head, d_head), dtype=np.float64)
    for pair in range(d_head // 2):
        matrix[2 * pair + 1, 2 * pair] = -1.0
        matrix[2 * pair, 2 * pair + 1] = 1.0
    return matrix


def _rotate_half_array(x: np.ndarray) -> np.ndarray:
    """No-grad ``rotate_half``: pairs ``(x1, x2) -> (-x2, x1)``, odd tail zeroed."""
    out = np.zeros_like(x)
    even = (x.shape[-1] // 2) * 2
    out[..., 0:even:2] = -x[..., 1:even:2]
    out[..., 1:even:2] = x[..., 0:even:2]
    return out


def causal_mask(length: int) -> np.ndarray:
    """Return a (length, length) additive mask allowing attention to ``j <= i``."""
    mask = np.full((length, length), MASK_VALUE, dtype=np.float64)
    mask[np.tril_indices(length)] = 0.0
    return mask


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: Optional[np.ndarray] = None,
    bias: Optional[Tensor] = None,
) -> Tuple[Tensor, Tensor]:
    """Compute ``softmax(Q K^T / sqrt(d) + B + M) V`` as one graph node.

    The forward runs the ops of the no-grad kernels
    (:meth:`MultiHeadAttention.forward_inference` and ``attend_rows``) in
    their order: scaled scores, ``+ bias``, ``+ mask``,
    :func:`~repro.nn.functional.softmax_array`, then the product with
    ``V``.  The closed-form backward, with ``P`` the weights, ``dO`` the
    upstream gradient and ``s = 1/sqrt(d)``::

        dV = Pᵀ dO        dP = dO Vᵀ        dS = P ⊙ (dP − Σ(dP ⊙ P))
        dB = dS           dQ = s · dS K     dK = s · dSᵀ Q

    with each gradient summed down to its input's (broadcast) shape.

    Parameters
    ----------
    query, key, value:
        Tensors of shape ``(..., T, d)``.
    mask:
        Optional additive mask broadcastable to ``(..., T, T)`` whose entries
        are ``0`` (visible) or a large negative value (invisible).
    bias:
        Optional additive (learned) score bias broadcastable to
        ``(..., T, T)``; unlike ``mask`` it participates in the graph.

    Returns
    -------
    (output, attention_weights)
        ``output`` has shape ``(..., T, d)``; ``attention_weights`` is a
        detached ``(..., T, T)`` tensor outside the graph.
    """
    scale = 1.0 / math.sqrt(query.shape[-1])
    scores = query.data @ np.swapaxes(key.data, -1, -2) * scale
    if bias is not None:
        scores = scores + bias.data
    if mask is not None:
        scores = scores + mask
    weights = F.softmax_array(scores)

    def backward(grad: np.ndarray) -> None:
        if value.requires_grad:
            value._accumulate(
                _unbroadcast(np.swapaxes(weights, -1, -2) @ grad, value.shape), owned=True
            )
        # dS = P ⊙ (dP − Σ(dP ⊙ P)), built in the dP buffer.
        d_scores = grad @ np.swapaxes(value.data, -1, -2)
        d_scores -= (d_scores * weights).sum(axis=-1, keepdims=True)
        d_scores *= weights
        if bias is not None and bias.requires_grad:
            d_bias = _unbroadcast(d_scores, bias.shape)
            # d_scores is scaled in place below: adopt only a separate sum.
            bias._accumulate(d_bias, owned=d_bias is not d_scores)
        d_scores *= scale
        if query.requires_grad:
            query._accumulate(_unbroadcast(d_scores @ key.data, query.shape), owned=True)
        if key.requires_grad:
            key._accumulate(
                _unbroadcast(np.swapaxes(d_scores, -1, -2) @ query.data, key.shape), owned=True
            )

    parents = (query, key, value) if bias is None else (query, key, value, bias)
    return Tensor._make(weights @ value.data, parents, backward), Tensor(weights)


class MultiHeadAttention(Module):
    """Multi-head attention with an additive mask.

    The KVEC paper describes a single-head formulation (``Q = Wq E0`` etc.);
    we implement the standard multi-head generalisation and use ``num_heads=1``
    where the paper's exact formulation is required.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int = 1,
        dropout: float = 0.0,
        rotary: bool = False,
        max_relative_positions: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} must be divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.rotary = bool(rotary)
        self.max_relative_positions = int(max_relative_positions)
        if self.rotary:
            self._rotate_half = rotate_half_matrix(self.d_head)
            #: Learned per-head additive score bias, indexed by the clipped
            #: relative position within the key sequence (same-key pairs only).
            self.rel_bias = (
                Embedding(self.max_relative_positions, num_heads, rng=rng)
                if self.max_relative_positions > 0
                else None
            )
        else:
            self._rotate_half = None
            self.rel_bias = None
        #: Attention weights of the most recent ``forward_inference`` pass
        #: with ``store_attention`` (numpy array of shape
        #: ``(num_heads, T, T)``); used by the attention-score analysis
        #: reproducing Fig. 10 of the paper.
        self.last_attention: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # relative-encoding helpers
    # ------------------------------------------------------------------ #
    def relative_bias_row(self, delta_row: np.ndarray, same_row: np.ndarray) -> Optional[np.ndarray]:
        """No-grad ``(num_heads, T)`` bias row for one streaming query.

        ``delta_row`` holds the query's key-rank minus each cached row's rank
        (already clipped to the table range); ``same_row`` is 1.0 where the
        cached row shares the query's key, 0.0 otherwise.
        """
        if self.rel_bias is None:
            return None
        return (self.rel_bias.weight.data[delta_row] * same_row[:, None]).T

    def relative_bias_rows(
        self, delta_rows: np.ndarray, same_rows: np.ndarray
    ) -> Optional[np.ndarray]:
        """Batched :meth:`relative_bias_row`: ``B`` streams, one table gather.

        ``delta_rows`` / ``same_rows`` are ``(B, T_max)`` padded arrays (pad
        slots may hold any in-range delta — their ``same`` entry is 0, so
        they contribute a zero bias).  Returns ``(B, num_heads, T_max)``.
        """
        if self.rel_bias is None:
            return None
        return self.rel_bias.weight.data[delta_rows].transpose(0, 2, 1) * (
            same_rows[:, None, :]
        )

    def clip_rank_delta(self, delta: np.ndarray) -> np.ndarray:
        """Clip raw rank differences into the relative-bias table range."""
        return np.clip(delta, 0, self.max_relative_positions - 1)

    # ------------------------------------------------------------------ #
    # no-grad fast path
    # ------------------------------------------------------------------ #
    def _split_heads_array(self, projected: np.ndarray) -> np.ndarray:
        # (T, d_model) -> (num_heads, T, d_head)
        length = projected.shape[0]
        return np.ascontiguousarray(
            projected.reshape(length, self.num_heads, self.d_head).swapaxes(0, 1)
        )

    def forward_inference(
        self,
        x: np.ndarray,
        mask: Optional[np.ndarray] = None,
        store_attention: bool = False,
        return_kv: bool = False,
        phases: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
    ):
        """Raw-array self-attention (evaluation mode, no autograd graph).

        The no-grad twin of :meth:`forward_batch` over one ``(T, d_model)``
        sequence: in rotary mode ``phases`` is the rows' ``(T, d_head)``
        ``(cos, sin)`` pair and ``delta`` / ``same`` the ``(T, T)``
        relative-bias inputs.  When ``return_kv`` is set, also returns the
        per-head projected key and value tensors of shape
        ``(num_heads, T, d_head)`` so a streaming caller can seed its KV
        cache from a batched encode.  In rotary mode the returned keys are
        already phase-rotated by their own position — exactly the
        representation the streaming cache stores, stable under later
        evictions.
        """
        key = self._split_heads_array(self.k_proj.forward_inference(x))
        value = self._split_heads_array(self.v_proj.forward_inference(x))
        query = self._split_heads_array(self.q_proj.forward_inference(x))

        bias = None
        if self.rotary and phases is not None:
            cos, sin = phases
            query = query * cos + _rotate_half_array(query) * sin
            key = key * cos + _rotate_half_array(key) * sin
            if self.rel_bias is not None and delta is not None:
                bias = self.rel_bias.weight.data[delta].transpose(2, 0, 1) * same[None, :, :]

        scores = query @ key.swapaxes(-1, -2) * (1.0 / math.sqrt(self.d_head))
        if bias is not None:
            scores = scores + bias
        if mask is not None:
            scores = scores + mask
        weights = F.softmax_array(scores)
        self.last_attention = weights.copy() if store_attention else None

        attended = weights @ value  # (num_heads, T, d_head)
        merged = attended.swapaxes(0, 1).reshape(x.shape[0], self.d_model)
        out = self.out_proj.forward_inference(merged)
        if return_kv:
            return out, key, value
        return out

    def project_qkv_row(
        self, x_row: np.ndarray, phases: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ):
        """Project one input row to per-head ``(num_heads, d_head)`` q/k/v rows.

        In rotary mode pass the row's ``(1, d_head)`` :func:`rotary_phases`
        of its global arrival index as ``phases``: the query and key rows
        are phase-rotated by it, which makes the returned key row safe to
        cache across window evictions.
        """
        query = self.q_proj.forward_inference(x_row).reshape(self.num_heads, self.d_head)
        key = self.k_proj.forward_inference(x_row).reshape(self.num_heads, self.d_head)
        value = self.v_proj.forward_inference(x_row).reshape(self.num_heads, self.d_head)
        if self.rotary and phases is not None:
            cos, sin = phases
            query = query * cos + _rotate_half_array(query) * sin
            key = key * cos + _rotate_half_array(key) * sin
        return query, key, value

    def project_qkv_rows(
        self, x_rows: np.ndarray, phases: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ):
        """Batched :meth:`project_qkv_row`: ``(B, d_model)`` inputs at once.

        Each of the ``B`` rows belongs to a *different* stream; projecting
        them together turns ``3B`` GEMVs into three ``(B, d_model)`` GEMMs.
        Returns per-head ``(B, num_heads, d_head)`` q/k/v arrays.  In rotary
        mode ``phases`` is the ``(B, d_head)`` :func:`rotary_phases` pair of
        each row's own global arrival index; the returned key rows are
        phase-rotated and cache-safe exactly like the single-row path's.
        """
        batch = x_rows.shape[0]
        query = self.q_proj.forward_inference(x_rows).reshape(batch, self.num_heads, self.d_head)
        key = self.k_proj.forward_inference(x_rows).reshape(batch, self.num_heads, self.d_head)
        value = self.v_proj.forward_inference(x_rows).reshape(batch, self.num_heads, self.d_head)
        if self.rotary and phases is not None:
            cos, sin = phases
            cos = cos[:, None, :]  # broadcast over heads
            sin = sin[:, None, :]
            query = query * cos + _rotate_half_array(query) * sin
            key = key * cos + _rotate_half_array(key) * sin
        return query, key, value

    # ------------------------------------------------------------------ #
    # autograd (training) forward
    # ------------------------------------------------------------------ #
    def forward_batch(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        phases: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
        cache: Optional[dict] = None,
    ) -> Tensor:
        """Self-attention over a stacked minibatch: the autograd forward.

        ``x`` holds ``B`` independent sequences padded to a common length as
        one ``(B, T, d_model)`` tensor (one sequence is ``B=1``); ``mask`` is
        the per-sample additive ``(B, T, T)`` mask, as produced by
        :func:`causal_mask` or the KVEC dynamic correlation mask (padding
        rows must keep at least the diagonal visible so their softmax stays
        finite — their outputs are never selected and contribute no
        gradient).  In rotary mode ``phases`` is the shared
        ``rotary_phases`` ``(cos, sin)`` pair (positions are the same
        ``arange(T)`` for every sample) and ``delta`` / ``same`` the
        per-sample relative-bias coordinate matrices of shape ``(B, T, T)``.

        ``cache`` encodes a sequence in causal chunks.  It is a dict the
        caller owns, empty before the first chunk, in which each call keeps
        the rotated keys and values of every row seen so far (graph tensors,
        so gradients reach the earlier chunks).  ``x`` then holds only the
        ``L_new`` new rows; they attend to the ``L_seen`` rows cached before
        them plus themselves, so ``mask``, ``delta`` and ``same`` are the new
        rows' ``(B, L_new, L_seen)`` blocks and ``phases`` the new rows'
        phases.  Encoding ``[0, a)`` then ``[a, T)`` gives the rows of one
        ``T``-row call up to BLAS summation order.

        Sample ``b``'s rows match running that sample alone at ``B=1`` up to
        BLAS summation order (1e-12-scale).  Projections, scores and the
        attention product each run as a single batched GEMM.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, d_model) input, got shape {x.shape}")
        batch, length = x.shape[0], x.shape[1]
        cached = cache["key"].shape[2] if cache else 0
        if mask is not None and np.shape(mask)[-1] != cached + length:
            raise ValueError(
                f"mask of shape {np.shape(mask)} does not cover {cached} cached rows "
                f"plus the {length} new rows of input shape {x.shape}"
            )
        query = self._split_heads_batch(self.q_proj(x), batch, length)
        key = self._split_heads_batch(self.k_proj(x), batch, length)
        value = self._split_heads_batch(self.v_proj(x), batch, length)

        bias = None
        if self.rotary and phases is not None:
            cos, sin = phases  # (T, d_head), broadcast over batch and heads
            rotate = Tensor(self._rotate_half)
            query = query * Tensor(cos) + query.matmul(rotate) * Tensor(sin)
            key = key * Tensor(cos) + key.matmul(rotate) * Tensor(sin)
            if self.rel_bias is not None and delta is not None:
                # (B, T, T, H) gather -> (B, H, T, T), zeroed cross-key.
                bias = self.rel_bias(delta).transpose(0, 3, 1, 2) * Tensor(
                    same[:, None, :, :]
                )
        if cache:
            key = Tensor.concatenate([cache["key"], key], axis=2)
            value = Tensor.concatenate([cache["value"], value], axis=2)
        if cache is not None:
            cache["key"], cache["value"] = key, value

        head_mask = None
        if mask is not None:
            head_mask = np.asarray(mask, dtype=np.float64)[:, None, :, :]

        attended, _ = scaled_dot_product_attention(
            query, key, value, mask=head_mask, bias=bias
        )
        self.last_attention = None  # batched passes never keep maps

        merged = attended.transpose(0, 2, 1, 3).reshape(batch, length, self.d_model)
        out = self.out_proj(merged)
        if self.dropout is not None:
            out = self.dropout(out)
        return out

    def _split_heads_batch(self, projected: Tensor, batch: int, length: int) -> Tensor:
        # (B, T, d_model) -> (B, num_heads, T, d_head)
        return projected.reshape(batch, length, self.num_heads, self.d_head).transpose(
            0, 2, 1, 3
        )

    def attend_rows(
        self,
        query_rows: np.ndarray,
        key_pad: np.ndarray,
        value_pad: np.ndarray,
        mask_rows: Optional[np.ndarray] = None,
        bias_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched :meth:`attend_row`: ``B`` independent streams in one call.

        ``query_rows`` has shape ``(B, num_heads, d_head)``; ``key_pad`` /
        ``value_pad`` hold each stream's visible cache rows padded to a common
        length ``(B, num_heads, T_max, d_head)``.  ``mask_rows`` is the
        ``(B, T_max)`` additive mask whose padding slots carry
        :data:`MASK_VALUE` — padded scores underflow to exactly zero weight
        under the softmax, so padding never changes the numerics of a row.
        ``bias_rows`` is an optional ``(B, num_heads, T_max)`` additive score
        bias.  Returns the ``(B, d_model)`` attended outputs.
        """
        # matmul (batched BLAS) beats einsum ~2x at these shapes.
        scores = (key_pad @ query_rows[..., None])[..., 0] * (
            1.0 / math.sqrt(self.d_head)
        )
        if bias_rows is not None:
            scores = scores + bias_rows
        if mask_rows is not None:
            scores = scores + mask_rows[:, None, :]
        weights = F.softmax_array(scores)
        self.last_attention = None  # row passes never keep maps; drop stale ones
        context = (weights[..., None, :] @ value_pad)[..., 0, :]
        merged = context.reshape(query_rows.shape[0], self.d_model)
        return self.out_proj.forward_inference(merged)

    def attend_row(
        self,
        query_row: np.ndarray,
        key_cache: np.ndarray,
        value_cache: np.ndarray,
        mask_row: Optional[np.ndarray] = None,
        bias_row: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Attention output for one new row against cached K/V.

        ``query_row`` has shape ``(num_heads, d_head)``; the caches hold the
        projected rows of every item visible to the new one, shaped
        ``(num_heads, T, d_head)`` (the new row's own k/v included).
        ``bias_row`` is an optional additive ``(num_heads, T)`` score bias
        (see :meth:`relative_bias_row`).  Returns the ``(d_model,)`` attended
        output after the output projection.
        """
        scores = np.einsum("hd,htd->ht", query_row, key_cache) * (1.0 / math.sqrt(self.d_head))
        if bias_row is not None:
            scores = scores + bias_row
        if mask_row is not None:
            scores = scores + mask_row
        weights = F.softmax_array(scores)
        self.last_attention = None  # row passes never keep maps; drop stale ones
        context = np.einsum("ht,htd->hd", weights, value_cache)
        return self.out_proj.forward_inference(context.reshape(self.d_model))

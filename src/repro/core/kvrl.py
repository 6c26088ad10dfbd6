"""The KVRL attention encoder (Section IV-B, "Attention Mechanism").

A stack of attention blocks refines the input embedding matrix ``E0`` into
``E``; each block is masked self-attention (with the dynamic correlation mask
added to the logits) followed by a position-wise feed-forward network, with
residual connections and layer normalisation.  Because the mask only permits
attention to positions ``j <= i``, row ``t`` of the output depends only on
items that arrived up to time ``t`` — so a single full-length forward pass
yields exactly the per-time-step representations the streaming model needs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, FeedForward, LayerNorm
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor


class KVRLBlock(Module):
    """One attention block: masked self-attention + FFN, residual + LayerNorm."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        ffn_hidden: int,
        dropout: float = 0.1,
        rotary: bool = False,
        max_relative_positions: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(
            d_model,
            num_heads=num_heads,
            dropout=dropout,
            rotary=rotary,
            max_relative_positions=max_relative_positions,
            rng=rng,
        )
        self.feed_forward = FeedForward(d_model, ffn_hidden, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward_batch(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        phases: Optional[tuple] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
        cache: Optional[dict] = None,
    ) -> Tensor:
        """The block's autograd forward over a stacked ``(B, T, d)`` batch.

        ``B`` independent samples' sequences (padded to a common length,
        each under its own ``(T, T)`` additive mask) run the attention,
        residual/norm and FFN tail as single batched GEMMs — all graph
        nodes, so gradients reach every block parameter.  One sequence is
        ``B=1``.  Sample ``b`` matches running it alone up to BLAS summation
        order; exact parity additionally requires ``dropout == 0``, since
        dropout masks are drawn over the whole batch.  ``cache`` is the
        attention's key/value cache for encoding in causal chunks (see
        :meth:`MultiHeadAttention.forward_batch`); everything after the
        attention is row-wise.
        """
        attended = self.attention.forward_batch(
            x, mask=mask, phases=phases, delta=delta, same=same, cache=cache
        )
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = self.norm1(x + attended)
        transformed = self.feed_forward(x)
        return self.norm2(x + transformed)

    def forward_inference(
        self,
        x: np.ndarray,
        mask: Optional[np.ndarray] = None,
        store_attention: bool = False,
        return_kv: bool = False,
        phases: Optional[tuple] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
    ):
        """Raw-array evaluation pass (dropout is a no-op in eval mode).

        ``phases``, ``delta`` and ``same`` are the rotary inputs of
        :meth:`MultiHeadAttention.forward_inference`.  With ``return_kv``
        the block also returns its per-head projected K/V arrays so
        streaming callers can seed their caches (rotary mode: keys are
        returned already phase-rotated, i.e. cache-ready).
        """
        attended = self.attention.forward_inference(
            x,
            mask=mask,
            store_attention=store_attention,
            return_kv=return_kv,
            phases=phases,
            delta=delta,
            same=same,
        )
        if return_kv:
            attended, key, value = attended
        x = self.norm1.forward_inference(x + attended)
        transformed = self.feed_forward.forward_inference(x)
        out = self.norm2.forward_inference(x + transformed)
        if return_kv:
            return out, key, value
        return out

    def forward_inference_row(
        self,
        x_row: np.ndarray,
        query_row: np.ndarray,
        key_cache: np.ndarray,
        value_cache: np.ndarray,
        mask_row: Optional[np.ndarray] = None,
        bias_row: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One-row streaming pass given cached K/V of all visible rows.

        ``query_row`` is the new row's projected query and ``key_cache`` /
        ``value_cache`` must already include the new row's own k/v (all three
        come from :meth:`MultiHeadAttention.project_qkv_row`).  ``bias_row``
        is the optional per-head relative-position score bias (rotary mode).
        """
        attended = self.attention.attend_row(
            query_row, key_cache, value_cache, mask_row, bias_row=bias_row
        )
        x_row = self.norm1.forward_inference(x_row + attended)
        transformed = self.feed_forward.forward_inference(x_row)
        return self.norm2.forward_inference(x_row + transformed)

    def forward_inference_rows(
        self,
        x_rows: np.ndarray,
        query_rows: np.ndarray,
        key_pad: np.ndarray,
        value_pad: np.ndarray,
        mask_rows: Optional[np.ndarray] = None,
        bias_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched :meth:`forward_inference_row`: ``B`` independent streams.

        Each of the ``B`` rows attends only against its *own* stream's padded
        K/V cache (``key_pad`` / ``value_pad`` of shape
        ``(B, num_heads, T_max, d_head)``, padding masked out by
        ``mask_rows``), so stacking different streams is pure math-level
        batching — the per-stream numerics match the single-row path.  The
        residual/norm/FFN tail runs as ``(B, d_model)`` GEMMs.
        """
        attended = self.attention.attend_rows(
            query_rows, key_pad, value_pad, mask_rows, bias_rows=bias_rows
        )
        x = self.norm1.forward_inference(x_rows + attended)
        transformed = self.feed_forward.forward_inference(x)
        return self.norm2.forward_inference(x + transformed)


class KVRLEncoder(Module):
    """Stack of :class:`KVRLBlock` modules sharing one correlation mask."""

    def __init__(
        self,
        d_model: int,
        num_blocks: int,
        num_heads: int = 1,
        ffn_hidden: Optional[int] = None,
        dropout: float = 0.1,
        rotary: bool = False,
        max_relative_positions: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        ffn_hidden = ffn_hidden or 4 * d_model
        self.blocks = ModuleList(
            [
                KVRLBlock(
                    d_model,
                    num_heads,
                    ffn_hidden,
                    dropout=dropout,
                    rotary=rotary,
                    max_relative_positions=max_relative_positions,
                    rng=rng,
                )
                for _ in range(num_blocks)
            ]
        )

    def forward_batch(
        self,
        embeddings: Tensor,
        mask: Optional[np.ndarray] = None,
        phases: Optional[tuple] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
        cache: Optional[dict] = None,
    ) -> Tensor:
        """Refine stacked ``(B, T, d_model)`` embeddings under ``mask``.

        The encoder's autograd forward; see :meth:`KVRLBlock.forward_batch`
        for the per-sample parity contract.  The rotary ``phases`` are
        shared across blocks (positions do not change between blocks) so
        callers compute them once.

        With ``cache`` (a dict the caller owns, empty before the first
        chunk) the embeddings are the next causal chunk of rows and the
        mask-like inputs its ``(B, L_new, L_seen)`` blocks; each block keeps
        its keys and values under its index (see
        :meth:`MultiHeadAttention.forward_batch`).
        """
        x = embeddings
        for index, block in enumerate(self.blocks):
            x = block.forward_batch(
                x,
                mask=mask,
                phases=phases,
                delta=delta,
                same=same,
                cache=None if cache is None else cache.setdefault(index, {}),
            )
        return x

    def forward_inference(
        self,
        embeddings: np.ndarray,
        mask: Optional[np.ndarray] = None,
        store_attention: bool = False,
        phases: Optional[tuple] = None,
        delta: Optional[np.ndarray] = None,
        same: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Raw-array evaluation pass over the whole block stack.

        Every block shares the caller's ``mask`` and rotary inputs.
        """
        x = embeddings
        for block in self.blocks:
            x = block.forward_inference(
                x,
                mask=mask,
                store_attention=store_attention,
                phases=phases,
                delta=delta,
                same=same,
            )
        return x

    def attention_maps(self) -> List[np.ndarray]:
        """Attention weights of the last ``forward_inference(store_attention=True)``.

        One ``(H, T, T)`` array per block.
        """
        maps: List[np.ndarray] = []
        for block in self.blocks:
            weights = block.attention.last_attention
            if weights is not None:
                maps.append(weights)
        return maps

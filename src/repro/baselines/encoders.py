"""Per-sequence encoders used by the baselines.

Two encoders are provided, both mapping one key-value sequence (processed
independently of all other sequences) to one representation vector per
observed item:

* :class:`LSTMSequenceEncoder` — the EARLIEST baseline's recurrent encoder
  over one-hot value features;
* :class:`SRNEncoder` — the "sequence representation network" of the paper's
  SRN-* baselines: per-field value embeddings plus a position embedding,
  refined by causally-masked Transformer blocks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.common import one_hot_features
from repro.data.items import KeyValueSequence, ValueSpec
from repro.nn.attention import causal_mask
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module, ModuleList
from repro.nn.recurrent import LSTM
from repro.nn.tensor import Tensor
from repro.core.kvrl import KVRLBlock


class LSTMSequenceEncoder(Module):
    """LSTM over the one-hot value series of a single key-value sequence."""

    def __init__(
        self,
        spec: ValueSpec,
        d_state: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.d_state = d_state
        input_dim = sum(spec.cardinalities)
        self.input_projection = Linear(input_dim, d_state, rng=rng)
        self.lstm = LSTM(d_state, d_state, rng=rng)

    def forward(self, sequence: KeyValueSequence, upto: Optional[int] = None) -> Tensor:
        """Per-step hidden states of shape ``(T, d_state)``."""
        length = len(sequence) if upto is None else min(upto, len(sequence))
        if length == 0:
            raise ValueError("cannot encode an empty sequence")
        features = one_hot_features(sequence.prefix(length), self.spec)
        projected = self.input_projection(Tensor(features))
        outputs, _ = self.lstm(projected)
        return outputs


class SRNEncoder(Module):
    """Sequence Representation Network: a per-sequence causal Transformer.

    This is the paper's "SRN" building block: it shares KVEC's embedding and
    attention machinery but sees one key-value sequence at a time, with a
    plain causal mask instead of the tangled correlation mask — i.e. no
    membership embedding and no cross-sequence value correlation.
    """

    def __init__(
        self,
        spec: ValueSpec,
        d_model: int,
        num_blocks: int = 2,
        num_heads: int = 1,
        ffn_hidden: Optional[int] = None,
        dropout: float = 0.1,
        max_positions: int = 512,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.spec = spec
        self.d_model = d_model
        self.d_state = d_model
        self.max_positions = max_positions
        self.value_embeddings = ModuleList(
            [Embedding(cardinality, d_model, rng=rng) for cardinality in spec.cardinalities]
        )
        self.position_embedding = Embedding(max_positions, d_model, rng=rng)
        ffn_hidden = ffn_hidden or 4 * d_model
        self.blocks = ModuleList(
            [
                KVRLBlock(d_model, num_heads, ffn_hidden, dropout=dropout, rng=rng)
                for _ in range(num_blocks)
            ]
        )

    def forward(self, sequence: KeyValueSequence, upto: Optional[int] = None) -> Tensor:
        """Per-step representations of shape ``(T, d_model)``.

        Row ``t`` only attends to positions ``<= t`` so it equals the
        representation available after observing ``t + 1`` items.
        """
        length = len(sequence) if upto is None else min(upto, len(sequence))
        if length == 0:
            raise ValueError("cannot encode an empty sequence")

        field_codes = np.zeros((self.spec.num_fields, length), dtype=int)
        for index in range(length):
            item = sequence[index]
            for field_index in range(self.spec.num_fields):
                field_codes[field_index, index] = item.field(field_index)
        positions = np.minimum(np.arange(length), self.max_positions - 1)

        embedded = self.value_embeddings[0](field_codes[0])
        for field_index in range(1, self.spec.num_fields):
            embedded = embedded + self.value_embeddings[field_index](field_codes[field_index])
        embedded = embedded + self.position_embedding(positions)

        mask = causal_mask(length)[None]
        x = embedded.reshape(1, length, self.d_model)
        for block in self.blocks:
            x = block.forward_batch(x, mask=mask)
        return x.reshape(length, self.d_model)


def encoder_state_dim(encoder: Module) -> int:
    """Dimension of the per-step representation produced by an encoder."""
    return int(getattr(encoder, "d_state"))

"""Internal vs external attention scores (Fig. 10, RQ1).

The paper quantifies how the KVRL attention budget is split between

* the **internal attention score** — cumulative attention weight placed on
  positions visible through the *key* correlation (items of the same
  sequence), and
* the **external attention score** — cumulative weight on positions visible
  through the *value* correlation (items of other concurrent sequences),

as a function of how much of the sequence has been observed (the halting
position / earliness).  Early on, external attention dominates (there is not
enough intra-sequence data yet); as more items arrive, internal attention
takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.model import KVEC
from repro.data.items import TangledSequence


@dataclass
class AttentionScorePoint:
    """Average attention split and accuracy at one earliness level."""

    earliness: float
    internal_score: float
    external_score: float
    accuracy: float
    num_observations: int


def attention_score_profile(
    model: KVEC,
    tangles: Sequence[TangledSequence],
    earliness_levels: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
) -> List[AttentionScorePoint]:
    """Measure internal/external attention scores at several halting positions.

    For every requested earliness level the model is run on a prefix of each
    tangled sequence containing that fraction of items; the attention maps of
    the last forward pass are then partitioned by the correlation structure:
    weights on key-correlated positions count as internal, weights on
    value-correlated positions as external (the diagonal self-attention weight
    is excluded from both).  Prefix classification accuracy is measured by
    forcing classification at the prefix end.
    """
    points: List[AttentionScorePoint] = []
    for level in earliness_levels:
        internal_total = 0.0
        external_total = 0.0
        weight_count = 0
        correct = 0
        classified = 0
        for tangle in tangles:
            length = max(2, int(round(level * len(tangle))))
            length = min(length, len(tangle))
            _, structure = model.encode_inference(tangle, upto=length, store_attention=True)
            for attention in model.encoder.attention_maps():
                # attention: (heads, T, T) — average heads, then accumulate
                # the per-row attention mass on each correlation type.
                mean_attention = attention.mean(axis=0)
                internal_total += float(mean_attention[structure.key_correlated].sum())
                external_total += float(mean_attention[structure.value_correlated].sum())
                weight_count += mean_attention.shape[0]
            # Threshold 1.1 never halts: every key is classified at the prefix end.
            for record in model.predict_tangle(tangle, halt_threshold=1.1, max_items=length):
                classified += 1
                correct += int(record.correct)
        if weight_count == 0:
            continue
        points.append(
            AttentionScorePoint(
                earliness=float(level),
                internal_score=internal_total / weight_count,
                external_score=external_total / weight_count,
                accuracy=correct / classified if classified else 0.0,
                num_observations=weight_count,
            )
        )
    return points

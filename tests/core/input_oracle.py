"""Full-length reference builds of the encoder inputs.

Every offline encode (the lockstep runner's causal chunks,
``KVEC.encode_inference`` and the serving state's ``rebuild``) builds its
inputs with ``KVEC.encoder_inputs`` from column tables, and
:func:`repro.core.correlation.build_correlation_structure` is the one-tangle,
full-range call of the same visibility code.  This module keeps the
constructions they replaced as references, walking each tangle item by item
and never calling that builder, and is not collected by pytest:

* :func:`reference_correlation_structure` builds one tangle's ``T×T``
  structure with a backward scan for each item's next same-key session
  change;
* :func:`reference_coordinates` walks a prefix for its clipped
  embedding-table indices;
* :func:`reference_rank_inputs` builds a prefix's rotary relative-bias
  inputs from its within-key ranks and key order;
* :func:`pad_minibatch` stacks a minibatch's inputs at full length: one
  reference structure per tangle, the ``(B, t_max, t_max)`` masks, the
  coordinates and, under rotary, the phases and delta/same matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.data.items import TangledSequence
from repro.nn.attention import MASK_VALUE, rotary_phases


def reference_correlation_structure(
    tangle: TangledSequence,
    upto: Optional[int] = None,
    use_key_correlation: bool = True,
    use_value_correlation: bool = True,
) -> CorrelationStructure:
    """The mask and correlation matrices of ``tangle[:upto]``, built whole."""
    length = tangle.prefix_length(upto)
    session_field = tangle.spec.session_field

    key_codes = np.empty(length, dtype=np.int64)
    session_values = np.empty(length, dtype=np.int64)
    code_by_key: Dict[Hashable, int] = {}
    for index in range(length):
        item = tangle[index]
        code = code_by_key.get(item.key)
        if code is None:
            code = len(code_by_key)
            code_by_key[item.key] = code
        key_codes[index] = code
        session_values[index] = int(item.value[session_field])

    # The position of the next same-key item with a different session value.
    next_change = np.full(length, length, dtype=np.int64)
    next_position: Dict[int, int] = {}
    for index in range(length - 1, -1, -1):
        code = int(key_codes[index])
        upcoming = next_position.get(code)
        if upcoming is not None:
            if session_values[upcoming] != session_values[index]:
                next_change[index] = upcoming
            else:
                next_change[index] = next_change[upcoming]
        next_position[code] = index

    order = np.arange(length)
    earlier = order[None, :] < order[:, None]
    same_key = key_codes[:, None] == key_codes[None, :]
    if use_key_correlation:
        key_correlated = same_key & earlier
    else:
        key_correlated = np.zeros((length, length), dtype=bool)
    if use_value_correlation:
        value_correlated = (
            ~same_key
            & earlier
            & (session_values[:, None] == session_values[None, :])
            & (next_change[None, :] > order[:, None])
        )
    else:
        value_correlated = np.zeros((length, length), dtype=bool)

    mask = np.where(key_correlated | value_correlated, 0.0, MASK_VALUE)
    np.fill_diagonal(mask, 0.0)
    return CorrelationStructure(
        mask=mask, key_correlated=key_correlated, value_correlated=value_correlated
    )


def reference_coordinates(embedding, tangle: TangledSequence, length: int):
    """Clipped embedding-table indices of every row of ``tangle[:length]``.

    Returns ``(field_codes, membership, positions, times)`` where
    ``field_codes`` is ``(num_fields, T)`` and the rest are ``(T,)`` int
    arrays, read from the tangle's own key order and within-key positions.
    Under the rotary scheme membership is the key's hash slot and the
    position/time columns stay zero.
    """
    items = tangle.items[:length]
    field_codes = np.array([item.value for item in items], dtype=int).T
    if embedding.encoding == "rotary":
        slots = {key: embedding.key_slot(key) for key in tangle.keys}
        membership = np.array([slots[item.key] for item in items], dtype=int)
        positions = np.zeros(length, dtype=int)
        times = np.zeros(length, dtype=int)
    else:
        membership = np.minimum(
            [tangle.key_index(item.key) for item in items], embedding.max_keys - 1
        )
        positions = np.minimum(
            [tangle.position_in_key_sequence(index) for index in range(length)],
            embedding.max_positions - 1,
        )
        times = np.minimum(np.arange(length), embedding.max_time - 1)
    return field_codes, membership, positions, times


def reference_rank_inputs(
    tangle: TangledSequence, length: int, max_relative_positions: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(T, T)`` rotary relative-bias inputs of ``tangle[:length]``.

    Returns ``(delta, same)``: within-key rank differences clipped to
    ``[0, max_relative_positions)``, and 1.0 on same-key pairs.
    """
    ranks = np.asarray(
        [tangle.position_in_key_sequence(index) for index in range(length)], dtype=np.int64
    )
    codes = np.asarray(
        [tangle.key_index(tangle[index].key) for index in range(length)], dtype=np.int64
    )
    delta = np.clip(ranks[:, None] - ranks[None, :], 0, max_relative_positions - 1)
    same = (codes[:, None] == codes[None, :]).astype(np.float64)
    return delta, same


@dataclass
class PaddedInputs:
    """A minibatch's encoder inputs at full length, padded to ``t_max``."""

    #: Field codes ``(num_fields, B, t_max)``, then membership, position and
    #: time, each ``(B, t_max)``.
    coordinates: Tuple[np.ndarray, ...]
    mask: np.ndarray  # (B, t_max, t_max)
    phases: Optional[Tuple[np.ndarray, np.ndarray]] = None  # (t_max, d_head)
    delta: Optional[np.ndarray] = None  # (B, t_max, t_max)
    same: Optional[np.ndarray] = None


def pad_minibatch(
    model, tangles: Sequence[TangledSequence], lengths: Sequence[int]
) -> PaddedInputs:
    """Stack each tangle's first ``lengths[i]`` rows of encoder inputs.

    Padding rows gather embedding-table row 0 and keep a visible diagonal.
    """
    config = model.config
    embedding = model.input_embedding
    attention = model.encoder.blocks[0].attention
    batch, t_max = len(tangles), max(lengths)
    padded = PaddedInputs(
        coordinates=(
            np.zeros((embedding.spec.num_fields, batch, t_max), dtype=int),
            *(np.zeros((batch, t_max), dtype=int) for _ in range(3)),
        ),
        mask=np.full((batch, t_max, t_max), MASK_VALUE, dtype=np.float64),
    )
    padded.mask[:, np.arange(t_max), np.arange(t_max)] = 0.0
    for i, (tangle, length) in enumerate(zip(tangles, lengths)):
        for column, values in zip(
            padded.coordinates, reference_coordinates(embedding, tangle, length)
        ):
            column[..., i, :length] = values
        padded.mask[i, :length, :length] = reference_correlation_structure(
            tangle,
            upto=length,
            use_key_correlation=config.use_key_correlation,
            use_value_correlation=config.use_value_correlation,
        ).mask

    if config.encoding == "rotary" and config.use_time_embeddings:
        padded.phases = rotary_phases(np.arange(t_max, dtype=np.float64), attention.d_head)
        if attention.rel_bias is not None:
            padded.delta = np.zeros((batch, t_max, t_max), dtype=int)
            padded.same = np.zeros((batch, t_max, t_max), dtype=np.float64)
            for i, (tangle, length) in enumerate(zip(tangles, lengths)):
                delta, same = reference_rank_inputs(
                    tangle, length, attention.max_relative_positions
                )
                padded.delta[i, :length, :length] = delta
                padded.same[i, :length, :length] = same
    return padded

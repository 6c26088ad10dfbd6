"""Key/value correlations and the dynamic mask matrix (Section IV-B).

Two items of a tangled sequence are correlated

* through **key correlation** when they share the same key (they belong to
  the same key-value sequence), and
* through **value correlation** when, had they shared a key, they would fall
  into the same *session* — operationally: the earlier item belongs to the
  currently open (most recent, uninterrupted) session of its own sequence and
  that session's value in the session field equals the later item's value in
  the session field.

The dynamic mask matrix ``M`` has ``M[i, j] = 0`` when item ``j`` is visible
to item ``i`` (``j <= i`` and the items are correlated, or ``i == j``) and a
large negative value otherwise; it is added to the attention logits so that
softmax zeroes out the invisible positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.data.items import TangledSequence
from repro.nn.attention import MASK_VALUE


@dataclass
class CorrelationStructure:
    """The correlation structure of (a prefix of) a tangled sequence.

    Attributes
    ----------
    mask:
        Additive attention mask of shape ``(T, T)`` with ``0`` on visible
        pairs and :data:`~repro.nn.attention.MASK_VALUE` on invisible ones.
    key_correlated:
        Boolean matrix; ``key_correlated[i, j]`` is True when ``j < i`` and
        items i and j share a key (intra-sequence visibility).
    value_correlated:
        Boolean matrix; ``value_correlated[i, j]`` is True when ``j <= i``,
        the items have different keys and they are correlated through the
        value/session rule (inter-sequence visibility).
    """

    mask: np.ndarray
    key_correlated: np.ndarray
    value_correlated: np.ndarray

    @property
    def length(self) -> int:
        return self.mask.shape[0]

    def visible_pairs(self) -> int:
        """Number of visible (i, j) pairs excluding the diagonal."""
        off_diagonal = self.mask == 0.0
        np.fill_diagonal(off_diagonal, False)
        return int(off_diagonal.sum())


def build_correlation_structure(
    tangle: TangledSequence,
    upto: Optional[int] = None,
    use_key_correlation: bool = True,
    use_value_correlation: bool = True,
) -> CorrelationStructure:
    """Build the mask and correlation matrices for ``tangle[:upto]``.

    The diagonal is always visible (``M[i, i] = 0``) regardless of the
    ablation switches, matching the paper's mask definition.
    """
    length = tangle.prefix_length(upto)
    session_field = tangle.spec.session_field

    # Vectorised over the whole prefix (the streaming state replays the same
    # rule one arrival at a time from its column table; the property tests
    # pin the two constructions against each other).  Extract per-item key
    # codes and session values, then derive for every item the position of
    # the *next same-key item with a different session value* — item j is
    # still part of its key's open session at time i exactly when that value
    # change happens at or after i.
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
    return CorrelationStructure(mask=mask, key_correlated=key_correlated, value_correlated=value_correlated)

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

import copy
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

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


class CorrelationTracker:
    """Incrementally track correlations as items of a tangled stream arrive.

    The tracker mirrors how a deployed system would compute the mask: items
    are observed one at a time and for each new item the tracker reports
    which earlier positions it is correlated with.  ``build_correlation_structure``
    uses it to produce the full matrices for a (prefix of a) tangled sequence.
    """

    def __init__(
        self,
        session_field: int,
        use_key_correlation: bool = True,
        use_value_correlation: bool = True,
    ) -> None:
        self.session_field = session_field
        self.use_key_correlation = use_key_correlation
        self.use_value_correlation = use_value_correlation
        #: positions of every observed item per key
        self._positions_by_key: Dict[Hashable, List[int]] = {}
        #: per key: (session value, positions of the currently open session)
        self._open_sessions: Dict[Hashable, Tuple[int, List[int]]] = {}
        self._count = 0

    @property
    def count(self) -> int:
        """Number of items observed so far."""
        return self._count

    def __deepcopy__(self, memo) -> "CorrelationTracker":
        """Copy every position list with one C-level call (keys are shared)."""
        new = copy.copy(self)
        memo[id(self)] = new
        new._positions_by_key = {
            key: list(positions) for key, positions in self._positions_by_key.items()
        }
        new._open_sessions = {
            key: (value, list(positions))
            for key, (value, positions) in self._open_sessions.items()
        }
        return new

    def observe(self, key: Hashable, value: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        """Register the next item and return its correlated earlier positions.

        Returns
        -------
        (key_correlated, value_correlated)
            Lists of earlier item positions visible through the key
            correlation and through the value correlation respectively.
            The two lists are disjoint: same-key positions are reported only
            as key correlations.
        """
        index = self._count
        session_value = int(value[self.session_field])

        key_positions = self._positions_by_key.get(key, [])
        key_correlated = list(key_positions) if self.use_key_correlation else []

        value_correlated: List[int] = []
        if self.use_value_correlation:
            own_positions = set(key_positions)
            for other_key, (open_value, open_positions) in self._open_sessions.items():
                if other_key == key:
                    continue
                if open_value == session_value:
                    value_correlated.extend(
                        pos for pos in open_positions if pos not in own_positions
                    )

        # Update the per-key state *after* computing correlations so an item
        # never correlates with itself through these lists.
        self._positions_by_key.setdefault(key, []).append(index)
        open_value, open_positions = self._open_sessions.get(key, (None, []))
        if open_value == session_value:
            open_positions.append(index)
            self._open_sessions[key] = (session_value, open_positions)
        else:
            self._open_sessions[key] = (session_value, [index])

        self._count += 1
        return key_correlated, sorted(value_correlated)

    def forget_oldest(self, key: Hashable, position: int) -> None:
        """Drop the globally oldest observed item from the tracker's memory.

        Streaming ring-buffer callers evict items strictly in arrival order,
        so the evicted item's position is always at the *front* of its key's
        position lists — forgetting is a front-pop (O(W) worst case, within
        the per-arrival budget).  Entries whose position lists empty out are
        deleted so the tracker's memory — and the per-arrival scan of open
        sessions in :meth:`observe` — stays proportional to the live window
        rather than to every key ever seen.  Dropping an emptied open-session
        entry is exact: whether the next same-value item of that key extends
        an empty open session or starts a fresh one, the resulting state is
        ``(value, [index])`` either way, and an empty position list
        contributes nothing to other keys' value correlations.
        """
        positions = self._positions_by_key.get(key)
        if positions and positions[0] == position:
            positions.pop(0)
            if not positions:
                del self._positions_by_key[key]
        open_entry = self._open_sessions.get(key)
        if open_entry is not None:
            open_value, open_positions = open_entry
            if open_positions and open_positions[0] == position:
                open_positions.pop(0)
            if not open_positions:
                del self._open_sessions[key]


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
    length = len(tangle) if upto is None else min(upto, len(tangle))
    session_field = tangle.spec.session_field

    # Vectorised equivalent of replaying a CorrelationTracker over the prefix
    # (the incremental tracker stays the streaming reference; the property
    # tests pin the two constructions against each other).  Extract per-item
    # key codes and session values, then derive for every item the position
    # of the *next same-key item with a different session value* — item j is
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

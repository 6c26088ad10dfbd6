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

One implementation of that rule serves the offline paths:
:func:`correlated_pairs` evaluates it over :class:`TangleColumns`, per-item
column tables of a group of tangles, for any causal range of rows.
:meth:`~repro.core.model.KVEC.encoder_inputs`, the input build of every
offline encode (the training runner's causal chunks,
``KVEC.encode_inference`` and the serving state's ``rebuild``), calls it
on the table that also gives the embedding coordinates and rotary inputs,
and :func:`build_correlation_structure` is its standalone one-tangle,
full-range call.  The serving state replays the same rule one arrival at a
time from its own column table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

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


class TangleColumns:
    """Per-item column tables of a group of tangles, filled forward.

    Row ``i`` of each ``(B, width)`` column holds tangle ``i``'s items in
    arrival order, ``width`` being the longest of ``lengths``: each item's
    key code (:meth:`~repro.data.items.TangledSequence.key_index`), its
    rank within its key
    (:meth:`~repro.data.items.TangledSequence.position_in_key_sequence`),
    its session-field value and the end of its open session run.  An item's run ends at the first later item of its key
    with another session value; until one arrives the end reads ``width``,
    past every row.  Rows at or past a tangle's length are never tabled.
    :meth:`field_codes` reads the items' value fields for a range of rows.

    :meth:`extend` tables rows up to a stop row, and later calls pick up
    where the last one stopped, so no row is scanned twice: a forward pass
    keeps each key's open run and closes it when the key's session value
    changes, as the serving state's open flags do.
    """

    def __init__(self, tangles: Sequence[TangledSequence], lengths: Sequence[int]) -> None:
        batch, width = len(tangles), max(lengths)
        self.tangles = tangles
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.shortest = min(lengths)
        self._columns = np.zeros((4, batch, width), dtype=np.int64)
        self.codes, self.ranks, self.sessions, self.ends = self._columns
        self.ends[...] = width
        #: Rows ``[0, filled)`` of every tangle are tabled.
        self.filled = 0
        #: Per tangle and key code: the session value and rows of its open run.
        self._open_sessions: List[List[int]] = [[] for _ in tangles]
        self._open_rows: List[List[List[int]]] = [[] for _ in tangles]

    def live(self, start: int, stop: int) -> np.ndarray:
        """``(B, stop - start)`` flags of the rows inside their tangle."""
        return np.arange(start, stop) < self.lengths[:, None]

    def _items(self, start: int, stop: int):
        """Each tangle's items of rows ``[start, stop)``, tangle by tangle."""
        return [
            tangle.items[start : min(stop, length)]
            for tangle, length in zip(self.tangles, self.lengths.tolist())
        ]

    def extend(self, stop: int) -> None:
        """Table rows ``[filled, stop)`` of every tangle, up to its length."""
        begin = self.filled
        if stop <= begin:
            return
        self.filled = stop
        closed, closed_at = [], []
        width = self.codes.shape[1]
        for i, (tangle, items) in enumerate(zip(self.tangles, self._items(begin, stop))):
            rows = range(begin, begin + len(items))
            key_index = tangle.key_index
            tangle_codes = [key_index(item.key) for item in items]
            session_field = tangle.spec.session_field
            tangle_sessions = [item.value[session_field] for item in items]
            open_sessions, open_rows = self._open_sessions[i], self._open_rows[i]
            # Open rows are kept as flat indices into the (B, width) columns.
            for row, code, session in zip(rows, tangle_codes, tangle_sessions):
                if code == len(open_sessions):  # the key's first item
                    open_sessions.append(session)
                    open_rows.append([i * width + row])
                elif open_sessions[code] == session:
                    open_rows[code].append(i * width + row)
                else:
                    closed += open_rows[code]
                    closed_at += [row] * len(open_rows[code])
                    open_sessions[code] = session
                    open_rows[code] = [i * width + row]
            self._columns[:3, i, rows.start : rows.stop] = (
                tangle_codes,
                [tangle.position_in_key_sequence(row) for row in rows],
                tangle_sessions,
            )
        if closed:
            self.ends.reshape(-1)[closed] = closed_at

    def field_codes(self, start: int, stop: int) -> np.ndarray:
        """``(num_fields, B, stop - start)`` value codes of rows ``[start, stop)``.

        Rows past a tangle's length read 0.
        """
        live = self.live(start, stop)
        num_fields = self.tangles[0].spec.num_fields
        items = chain.from_iterable(self._items(start, stop))
        values = np.fromiter(
            chain.from_iterable([item.value for item in items]),
            dtype=np.int64,
            count=int(live.sum()) * num_fields,
        )
        fields = np.zeros((num_fields,) + live.shape, dtype=np.int64)
        fields[:, live] = values.reshape(-1, num_fields).T
        return fields


def correlated_pairs(
    table: TangleColumns,
    start: int,
    stop: int,
    use_key_correlation: bool = True,
    use_value_correlation: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The visibility rule for rows ``[start, stop)`` over columns ``[0, stop)``.

    One vectorised expression over every tangle of ``table``, which must be
    tabled up to ``stop``.  Returns ``(same_key, key_correlated,
    value_correlated)``, each a ``(B, stop - start, stop)`` boolean array:
    ``same_key`` marks pairs with equal key codes (rows past a tangle's
    length included), and the two correlation arrays mark the pairs of
    :class:`CorrelationStructure`, only on rows inside the tangle.  An item
    is still in its key's open session at row ``i`` exactly when its run
    ends after ``i``.
    """
    rows = np.arange(start, stop)
    codes = table.codes[:, :stop]
    same_key = codes[:, start:, None] == codes[:, None, :]
    earlier = (np.arange(stop) < rows[:, None])[None]
    if stop > table.shortest:  # padding rows correlate with no row
        earlier = earlier & table.live(start, stop)[:, :, None]
    if use_key_correlation:
        key_correlated = same_key & earlier
    else:
        key_correlated = np.zeros(same_key.shape, dtype=bool)
    if use_value_correlation:
        sessions = table.sessions[:, :stop]
        value_correlated = (
            ~same_key
            & earlier
            & (sessions[:, start:, None] == sessions[:, None, :])
            & (table.ends[:, None, :stop] > rows[:, None])
        )
    else:
        value_correlated = np.zeros(same_key.shape, dtype=bool)
    return same_key, key_correlated, value_correlated


def correlation_mask(
    key_correlated: np.ndarray, value_correlated: np.ndarray, start: int = 0
) -> np.ndarray:
    """Additive mask of :func:`correlated_pairs` rows starting at row ``start``.

    Correlated pairs and each row's own column read ``0``; every other
    entry reads :data:`~repro.nn.attention.MASK_VALUE`.
    """
    visible = key_correlated | value_correlated
    batch, length, stop = visible.shape
    # Row r's own column is start + r: every (stop + 1)-th entry of a row-major block.
    visible.reshape(batch, length * stop)[:, start :: stop + 1] = True
    return np.where(visible, 0.0, MASK_VALUE)


def build_correlation_structure(
    tangle: TangledSequence,
    upto: Optional[int] = None,
    use_key_correlation: bool = True,
    use_value_correlation: bool = True,
) -> CorrelationStructure:
    """Build the mask and correlation matrices for ``tangle[:upto]``.

    The one-tangle, full-range call of :func:`correlated_pairs`, the code
    every offline encode evaluates through
    :meth:`~repro.core.model.KVEC.encoder_inputs` (the streaming state
    replays the same rule one arrival at a time from its own column table;
    the property tests pin the constructions against each other).  The
    diagonal is always visible (``M[i, i] = 0``) regardless of the ablation
    switches, matching the paper's mask definition.
    """
    length = tangle.prefix_length(upto)
    table = TangleColumns([tangle], [length])
    table.extend(length)
    _, key_correlated, value_correlated = correlated_pairs(
        table,
        0,
        length,
        use_key_correlation=use_key_correlation,
        use_value_correlation=use_value_correlation,
    )
    return CorrelationStructure(
        mask=correlation_mask(key_correlated, value_correlated)[0],
        key_correlated=key_correlated[0],
        value_correlated=value_correlated[0],
    )

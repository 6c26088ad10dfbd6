"""Incremental KV-cached streaming encoder state for online serving.

The KVRL correlation mask is strictly causal: row ``i`` of every attention
block may only attend to rows ``j <= i``.  Therefore, in an *append-only*
window, the representation of every already-encoded row is final — a new
arrival can be encoded by computing just its own row through the block stack,
attending against cached per-block key/value projections.  That drops the
per-arrival cost of the online engine from O(W²·d) (full re-encode of a
window of W items) to O(W·d).

:class:`IncrementalEncoderState` caches, per attention block, the projected
K/V rows of every item currently in the context, plus the per-key fusion
states, and derives each new arrival's correlation-mask row from a column
table of the cached rows, so that :meth:`append` produces exactly the fused
representation a full re-encode of the same window would produce.

**Columnar ring storage.**  A state holds ``C`` slots, ``C`` being the
requested capacity.  Each block keeps one ``(2, num_heads, C, d_head)`` K/V
array, and the state keeps one ``(4, C)`` int64 column table: per slot the
row's key code, its rank within its key, its session-field value and an
open-session flag.  Arrival ``t`` lives in slot ``t mod C`` (counted from
the last time :meth:`_grow` re-laid the live rows in arrival order).  One
function, :meth:`_correlation_rows`, turns the columns into the arriving
row's mask, relative-delta and same-key rows with a few numpy comparisons
(the visibility rule of
:func:`~repro.core.correlation.build_correlation_structure`, replayed
incrementally); the serial :meth:`append` and the batched
:func:`append_batch` call it.  :meth:`rebuild` encodes a whole window at
once through :meth:`~repro.core.model.KVEC.encoder_inputs`, the input
build of the offline encodes, and leaves the same column table the
arrivals' appends would.  Attention runs over the written slots in
*slot* order: after the ring first wraps that differs from arrival order,
which moves results by summation-order noise only (~1e-16) — the softmax
gives masked slots exactly zero weight.

Two eviction strategies, selected by ``KVECConfig.encoding``:

**Absolute scheme** (``encoding="absolute"``, the paper's formulation).
Exactness only holds while the window is append-only.  When the sliding
window evicts an item, every remaining row shifts: the time embedding is
indexed by the item's position *within the window*, the relative position
and membership indices are window-relative too, and per-key fusion restarts
from the first retained item.  A full re-encode of the shrunken window
therefore changes every row, and no O(W) update can reproduce it.  The cache
must be invalidated: :meth:`rebuild` re-encodes the remaining window in one
*batched no-grad pass* and reseeds all caches from it — saturated-window
serving stays O(W²·d) per arrival.  :attr:`rebuilds` counts these passes.
The scheme never evicts a slot, so its slots stay in arrival order.

**Rotary scheme** (``encoding="rotary"``, the eviction-stable ring buffer).
Time and position information live on the attention side (rotary phase
rotation of Q/K by *global* arrival index plus a relative within-key
position bias; see :mod:`repro.nn.attention`), and the membership embedding
is a stable key hash, so an item's embedding, its cached (rotated) K/V rows
and its fused representation never depend on its current offset in the
window.  Each row's representation is **frozen at arrival**: it is computed
once, attending over the window contents at that moment (equivalently, over
the ``W`` most recent arrivals — a banded attention mask in global indices),
and never recomputed.  Eviction is :meth:`evict_oldest`: an O(1) advance of
the ring's base — no array moves; the evicted row's slot is masked out until
the next arrival overwrites it — and the next arrival appends one O(W·d) row;
**no rebuild ever happens**, so saturated-window serving is O(W·d) per
arrival.  Per-key fusion states and latest representations survive eviction
(the fusion folds a key's *entire stream*, exactly like a full-history
reference encode under the banded mask).
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.correlation import TangleColumns
from repro.data.items import Item, TangledSequence
from repro.nn.attention import MASK_VALUE, rotary_phases

#: Initial per-block cache capacity when none is given.
_DEFAULT_CAPACITY = 64

#: Rows of a state's column table: each slot's key code, rank within its
#: key, session-field value and open-session flag (1 while the row belongs
#: to its key's current session).
_NUM_COLUMNS = 4
_CODE, _RANK, _SESSION, _OPEN = range(_NUM_COLUMNS)


class IncrementalEncoderState:
    """Streaming KV cache over a bounded window of a tangled item stream.

    Parameters
    ----------
    model:
        A :class:`~repro.core.model.KVEC` instance (only its no-grad
        inference methods are used; no autograd graph is ever built).  The
        model's ``config.encoding`` selects the eviction strategy (see the
        module docstring).
    capacity:
        Expected maximum number of context rows (e.g. the engine's
        ``window_items``): the number of ring slots.  The ring grows
        automatically if exceeded.
    """

    def __init__(self, model, capacity: Optional[int] = None) -> None:
        self.model = model
        config = model.config
        self._scheme = getattr(config, "encoding", "absolute")
        self._use_relative = self._scheme == "rotary" and config.use_time_embeddings
        self._use_key = config.use_key_correlation
        self._use_value = config.use_value_correlation
        self._session_field = model.spec.session_field
        self._capacity = max(int(capacity or _DEFAULT_CAPACITY), 1)
        self._num_blocks = len(model.encoder.blocks)
        #: Batched full re-encodes performed (absolute-scheme evictions only).
        self.rebuilds = 0
        #: Rows dropped via :meth:`evict_oldest` (rotary scheme only).
        self.evictions = 0
        self._check_absolute_bound(self._capacity)
        self._allocate(self._capacity)
        self._clear_bookkeeping()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def _check_absolute_bound(self, rows: int) -> None:
        """Fail fast when the absolute scheme cannot label ``rows`` rows.

        The absolute time-embedding table has ``max_time`` entries; rows
        beyond it would silently alias the last embedding.  Rejecting at the
        boundary (instead of deep inside an ``Embedding`` lookup, or not at
        all) is the contract the serving engine relies on.
        """
        max_time = getattr(self.model.config, "max_time", None)
        if self._scheme == "absolute" and max_time is not None and rows > max_time:
            raise ValueError(
                f"absolute encoding supports at most max_time={max_time} cached "
                f"rows, requested {rows}; raise KVECConfig.max_time or switch to "
                f"encoding='rotary' for unbounded streams"
            )

    def _allocate(self, capacity: int) -> None:
        attention = self.model.encoder.blocks[0].attention
        shape = (2, attention.num_heads, capacity, attention.d_head)
        #: Per block: K (``[0]``) and V (``[1]``) of every slot.
        self._kv: List[np.ndarray] = [
            np.empty(shape, dtype=np.float64) for _ in range(self._num_blocks)
        ]
        self._columns = np.empty((_NUM_COLUMNS, capacity), dtype=np.int64)
        self._capacity = capacity

    def _clear_bookkeeping(self) -> None:
        self._length = 0
        #: Global arrival index of the oldest live row (== rows evicted).
        self._base = 0
        #: Global arrival index held by slot 0 (reset when the ring grows).
        self._origin = 0
        self._key_order: Dict[Hashable, int] = {}
        self._key_counts: Dict[Hashable, int] = {}
        self._row_keys: List[Hashable] = []
        self._fused_rows: List[np.ndarray] = []
        self._fusion_states: Dict[Hashable, tuple] = {}
        self._latest_rep: Dict[Hashable, np.ndarray] = {}

    def _filled(self) -> int:
        """Slots ``[0, filled)`` hold written rows, live or evicted."""
        return min(self._capacity, self._base + self._length - self._origin)

    def _live_slots(self) -> np.ndarray:
        """Slot of every live row, in arrival order."""
        start = self._base - self._origin
        return np.arange(start, start + self._length) % self._capacity

    def _live_mask(self, filled: int) -> np.ndarray:
        """Which of the ``filled`` written slots hold live (unevicted) rows."""
        if filled == self._length:
            return np.ones(filled, dtype=bool)
        head = (self._base - self._origin) % self._capacity
        return (np.arange(filled) - head) % self._capacity < self._length

    def _grow(self, minimum: int) -> None:
        """Double the ring until it holds ``minimum`` rows.

        The live rows are re-laid in arrival order from slot 0.
        """
        self._check_absolute_bound(minimum)
        capacity = self._capacity
        while capacity < minimum:
            capacity *= 2
        if capacity == self._capacity:
            return
        order = self._live_slots()
        length = self._length
        kv, columns = self._kv, self._columns
        self._allocate(capacity)
        for grown, old in zip(self._kv, kv):
            grown[:, :, :length, :] = old[:, :, order, :]
        self._columns[:, :length] = columns[:, order]
        self._origin = self._base

    def __deepcopy__(self, memo) -> "IncrementalEncoderState":
        """Copy the caches and bookkeeping container by container.

        Each array is one ``ndarray.copy()`` and each list or dict one
        C-level call; keys are shared.  The model goes through ``memo``,
        so a caller's memo decides whether the weights are shared, detached
        or copied.
        """
        copy_array = np.ndarray.copy
        new = copy.copy(self)
        memo[id(self)] = new
        new.model = copy.deepcopy(self.model, memo)
        new._kv = list(map(copy_array, self._kv))
        new._columns = self._columns.copy()
        new._key_order = dict(self._key_order)
        new._key_counts = dict(self._key_counts)
        new._row_keys = list(self._row_keys)
        new._fused_rows = list(map(copy_array, self._fused_rows))
        new._fusion_states = {
            key: tuple(map(copy_array, state)) for key, state in self._fusion_states.items()
        }
        new._latest_rep = {key: rep.copy() for key, rep in self._latest_rep.items()}
        return new

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def fused_rows(self) -> List[np.ndarray]:
        """Per-row fused key representation ``s_k^{(t)}``, in arrival order."""
        return self._fused_rows

    def row_key(self, index: int) -> Hashable:
        return self._row_keys[index]

    def key_index(self, key: Hashable) -> int:
        """0-based first-appearance rank of ``key`` in the cached context.

        Absolute scheme: resets with every rebuild, so it matches the key
        order of the window materialised as a
        :class:`~repro.data.items.TangledSequence`.  Rotary scheme: never
        resets, so it matches the key order of the full retained history —
        in both cases exactly the order the reference path's records use.
        """
        return self._key_order[key]

    def fused_row(self, index: int) -> np.ndarray:
        return self._fused_rows[index]

    def latest_representation(self, key: Hashable) -> Optional[np.ndarray]:
        """The key's fused representation after its newest item.

        Under the rotary scheme this survives window eviction (fusion folds
        the key's whole stream); under the absolute scheme it is forgotten by
        the rebuild that follows an eviction of the key's last cached item.
        """
        return self._latest_rep.get(key)

    def kv_cache_view(self, block_index: int):
        """The live ``(K, V)`` rows of one block in arrival order.

        Gathered from the ring's slots, so these are copies (for
        tests/diagnostics).
        """
        kv = self._kv[block_index][:, :, self._live_slots(), :]
        return kv[0], kv[1]

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #
    def _admit(self, item: Item) -> Tuple[int, int, int]:
        """Give one arrival its slot and columns; the row is then live.

        Returns ``(slot, key_index, position)``: the ring slot the caller
        must fill with the row's K/V, and the embedding coordinates.  The
        row's global arrival index is ``_base + len(self) - 1``.
        """
        self._check_absolute_bound(self._base + self._length + 1)
        if self._length == self._capacity:
            self._grow(self._length + 1)
        key = item.key
        key_index = self._key_order.setdefault(key, len(self._key_order))
        position = self._key_counts.get(key, 0)
        self._key_counts[key] = position + 1
        slot = (self._base + self._length - self._origin) % self._capacity
        self._columns[:, slot] = (
            key_index,
            position,
            int(item.value[self._session_field]),
            1,
        )
        self._length += 1
        self._row_keys.append(key)
        return slot, key_index, position

    def _correlation_rows(
        self, columns: np.ndarray, live: np.ndarray, slots: Sequence[int]
    ):
        """Mask, rank-delta and same-key rows of ``B`` arriving rows.

        The visibility rule of the dynamic mask (Section IV-B), as column
        comparisons.  ``columns`` is a ``(B, 4, T)`` stack of column tables
        whose arriving rows are already written at ``slots``; ``live`` is
        the ``(B, T)`` flag of slots holding live rows (False on evicted and
        padding slots).  An arriving row with key code ``c`` and session
        value ``s`` sees

        * the live rows with ``code == c`` (key correlation), and
        * the live rows still open in their key's session, with
          ``session == s`` and a different key (value correlation),

        plus itself.  A new session value closes its key's open rows: the
        open flags of same-key rows with another session value are cleared
        in ``columns``.  Returns the ``(B, T)`` additive mask and, for the
        relative encoding, the clipped rank deltas and the same-key
        indicator (``None`` otherwise).
        """
        rows = np.arange(len(slots))
        arriving = columns[rows, :, slots]
        same = (columns[:, _CODE] == arriving[:, _CODE, None]) & live
        in_session = columns[:, _SESSION] == arriving[:, _SESSION, None]
        open_flags = columns[:, _OPEN]
        open_flags[same & ~in_session] = 0
        if self._use_key:
            visible = same
        else:
            visible = np.zeros_like(same)
            visible[rows, slots] = True
        if self._use_value:
            visible = visible | (in_session & live & ~same & (open_flags == 1))
        mask = np.where(visible, 0.0, MASK_VALUE)
        if not self._use_relative:
            return mask, None, None
        delta = self.model.encoder.blocks[0].attention.clip_rank_delta(
            arriving[:, _RANK, None] - columns[:, _RANK]
        )
        return mask, delta, same.astype(np.float64)

    def _commit_fused(self, key: Hashable, representation: np.ndarray) -> np.ndarray:
        """Record the fused representation of the newest row."""
        self._latest_rep[key] = representation
        self._fused_rows.append(representation)
        return representation

    def append(self, item: Item) -> np.ndarray:
        """Encode one new arrival in O(W·d) and return its fused representation.

        The new row's embedding, mask row, per-block attention (against the
        cached K/V of every written slot, evicted ones masked out) and fusion
        step are computed; nothing already cached is touched, which is exact
        because the mask is causal.
        """
        slot, key_index, position = self._admit(item)
        arrival = self._base + self._length - 1
        model = self.model
        row = model.input_embedding.embed_item_inference(
            item, key_index=key_index, position=position, time_index=arrival
        )
        filled = self._filled()
        mask, delta, same = self._correlation_rows(
            self._columns[None, :, :filled], self._live_mask(filled)[None], (slot,)
        )
        phases = None
        if self._use_relative:
            # Positions are identical for every block: phases are computed once.
            phases = rotary_phases(
                np.asarray([float(arrival)]), model.encoder.blocks[0].attention.d_head
            )
        for block, kv in zip(model.encoder.blocks, self._kv):
            query, k_row, v_row = block.attention.project_qkv_row(row, phases)
            kv[0, :, slot] = k_row
            kv[1, :, slot] = v_row
            bias_row = (
                block.attention.relative_bias_row(delta[0], same[0])
                if self._use_relative
                else None
            )
            row = block.forward_inference_row(
                row,
                query,
                kv[0, :, :filled],
                kv[1, :, :filled],
                mask[0],
                bias_row=bias_row,
            )
        representation = model.fusion_step_inference(self._fusion_states, item.key, row)
        return self._commit_fused(item.key, representation)

    def evict_oldest(self) -> Hashable:
        """Drop the oldest row from the ring in O(1); returns the evicted key.

        Only valid under the rotary scheme, whose cached rows are invariant
        to their window offset.  Nothing moves: the ring's base advances and
        the per-row key and fused-row lists pop their front entry.  The
        evicted row's slot keeps its stale K/V and columns, which the
        visibility rule masks out, until the next arrival overwrites it.
        Per-key fusion states, latest representations and the global key
        order deliberately survive — the rotary semantics freeze each row at
        arrival, so history beyond the window still shapes later rows of the
        same key exactly as a full banded re-encode of the retained stream
        would.
        """
        if self._scheme != "rotary":
            raise RuntimeError(
                "evict_oldest() requires encoding='rotary'; the absolute scheme "
                "must rebuild() after an eviction"
            )
        if self._length == 0:
            raise IndexError("evict_oldest() on an empty cache")
        key = self._row_keys.pop(0)
        self._fused_rows.pop(0)
        self._base += 1
        self._length -= 1
        self.evictions += 1
        return key

    def rebuild(self, items: Sequence[Item]) -> None:
        """Invalidate every cache and re-encode ``items`` in one batched pass.

        Called by the engine after a window eviction under the **absolute**
        scheme (see the module docstring).  The items, in arrival order, are
        encoded as one tangled sequence on the inputs of
        :meth:`~repro.core.model.KVEC.encoder_inputs`; the blocks' K/V
        reseed the caches and the per-key fusion is replayed.  The column
        table ends as the items' appends would leave it.  Under the rotary
        scheme this reseeds the state as if ``items`` were a fresh stream
        (arrival indices restart at 0) — the serving engine never needs it,
        but tests use it to cross-check :meth:`append` against the batched
        encoder.
        """
        self._clear_bookkeeping()
        self.rebuilds += 1
        if not items:
            return
        model = self.model
        tangle = TangledSequence(items, {item.key: 0 for item in items}, model.spec)
        length = len(tangle)
        self._check_absolute_bound(length)
        if length > self._capacity:
            self._grow(length)
        for item in tangle.items:
            self._admit(item)
        table = TangleColumns([tangle], [length])
        table.extend(length)
        # A row is open exactly when its session run never ended.
        self._columns[_OPEN, :length] = table.ends[0] == length

        inputs = model.encoder_inputs(table, 0, length).single()
        x = model.input_embedding.forward_inference(*inputs.coordinates)
        for block, kv in zip(model.encoder.blocks, self._kv):
            x, keys, values = block.forward_inference(
                x,
                mask=inputs.mask,
                return_kv=True,
                phases=inputs.phases,
                delta=inputs.delta,
                same=inputs.same,
            )
            kv[0, :, :length, :] = keys
            kv[1, :, :length, :] = values

        for item, encoded_row in zip(tangle.items, x):
            representation = model.fusion_step_inference(
                self._fusion_states, item.key, encoded_row
            )
            self._commit_fused(item.key, representation)


def append_batch(
    states: Sequence[IncrementalEncoderState], items: Sequence[Item]
) -> List[np.ndarray]:
    """Encode one pending arrival of *each* state in one batched pass.

    The cross-stream batched encoding path of the sharded serving cluster:
    ``items[i]`` is appended to ``states[i]`` exactly as ``states[i].append``
    would, but the B rows are pushed through the block stack together — one
    ``(B, d_model)`` GEMM per projection/FFN and one batched attention
    ``matmul`` per block, instead of ``B`` separate GEMV chains.  The mask,
    relative-delta and same-key rows of the whole round come from one
    ``(B, 4, T)`` stack of the streams' column tables.  Streams are
    independent (each row attends only against its own state's written
    slots, padded to the round's widest ring and masked), so batching is
    pure math-level restructuring: per-stream results match :meth:`append`
    up to BLAS summation-order noise (well below 1e-9), which is the same
    tolerance the incremental-vs-full parity suite already absorbs.

    Constraints: all states must share one model (a shard's sessions do by
    construction) and must be distinct objects — a state can only accept one
    pending arrival per batch because its next mask row depends on the
    previous append having completed.
    """
    if len(states) != len(items):
        raise ValueError(
            f"append_batch got {len(states)} states but {len(items)} items"
        )
    if not states:
        return []
    if len(states) == 1:
        return [states[0].append(items[0])]
    if len({id(state) for state in states}) != len(states):
        raise ValueError(
            "append_batch requires distinct states: a stream can only encode "
            "one pending arrival per batch round"
        )
    model = states[0].model
    for state in states[1:]:
        if state.model is not model:
            raise ValueError("append_batch requires all states to share one model")

    admitted = [state._admit(item) for state, item in zip(states, items)]
    slots = [entry[0] for entry in admitted]
    arrivals = [state._base + state._length - 1 for state in states]
    x = model.input_embedding.embed_items_inference(
        items,
        key_indices=[entry[1] for entry in admitted],
        positions=[entry[2] for entry in admitted],
        time_indices=arrivals,
    )

    # Each stream's written slots, padded to the widest ring of the round.
    batch = len(states)
    filled = [state._filled() for state in states]
    t_max = max(filled)
    columns = np.zeros((batch, _NUM_COLUMNS, t_max), dtype=np.int64)
    live = np.arange(t_max) < np.asarray(filled)[:, None]
    for i, state in enumerate(states):
        columns[i, :, : filled[i]] = state._columns[:, : filled[i]]
        if filled[i] > state._length:
            live[i, : filled[i]] = state._live_mask(filled[i])
    first = states[0]
    mask, delta, same = first._correlation_rows(columns, live, slots)
    for i, state in enumerate(states):
        state._columns[_OPEN, : filled[i]] = columns[i, _OPEN, : filled[i]]

    first_attention = model.encoder.blocks[0].attention
    # Positions are identical for every block, so the rotary phases are
    # computed once.
    phases = (
        rotary_phases(np.asarray(arrivals, dtype=np.float64), first_attention.d_head)
        if first._use_relative
        else None
    )
    # Padding slots are never written, so the pad can be shared by every
    # block (each block overwrites only each stream's written slots).
    kv_pad = np.zeros(
        (2, batch, first_attention.num_heads, t_max, first_attention.d_head),
        dtype=np.float64,
    )
    for block_index, block in enumerate(model.encoder.blocks):
        attention = block.attention
        query, keys, values = attention.project_qkv_rows(x, phases=phases)
        new_kv = np.stack((keys, values), axis=1)
        bias = attention.relative_bias_rows(delta, same) if delta is not None else None
        for i, state in enumerate(states):
            kv = state._kv[block_index]
            kv[:, :, slots[i]] = new_kv[i]
            kv_pad[:, i, :, : filled[i]] = kv[:, :, : filled[i]]
        x = block.forward_inference_rows(
            x, query, kv_pad[0], kv_pad[1], mask, bias_rows=bias
        )

    # Batched fusion: every stream's gate GEMVs stack into one GEMM.
    representations = model.fusion_steps_inference(
        [(state._fusion_states, item.key) for state, item in zip(states, items)], x
    )
    return [
        state._commit_fused(item.key, representations[i])
        for i, (state, item) in enumerate(zip(states, items))
    ]

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
states, and extends the correlation-mask row for each new arrival
incrementally (via :class:`~repro.core.correlation.CorrelationTracker`, the
same machinery the batched mask builder uses), so that :meth:`append`
produces exactly the fused representation a full re-encode of the same
window would produce.

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

**Rotary scheme** (``encoding="rotary"``, the eviction-stable ring buffer).
Time and position information live on the attention side (rotary phase
rotation of Q/K by *global* arrival index plus a relative within-key
position bias; see :mod:`repro.nn.attention`), and the membership embedding
is a stable key hash, so an item's embedding, its cached (rotated) K/V rows
and its fused representation never depend on its current offset in the
window.  Each row's representation is **frozen at arrival**: it is computed
once, attending over the window contents at that moment (equivalently, over
the ``W`` most recent arrivals — a banded attention mask in global indices),
and never recomputed.  Eviction becomes :meth:`evict_oldest` — drop row 0
and shift the caches left, an O(W·d) memmove — and the next arrival appends
one O(W·d) row; **no rebuild ever happens**, so saturated-window serving is
O(W·d) per arrival.  Per-key fusion states and latest representations
survive eviction (the fusion folds a key's *entire stream*, exactly like a
full-history reference encode under the banded mask).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.core.correlation import CorrelationTracker
from repro.data.items import Item
from repro.nn.attention import MASK_VALUE, RelativeCoords

#: Initial per-block cache capacity when none is given.
_DEFAULT_CAPACITY = 64


@dataclass
class _PendingRow:
    """One registered-but-not-yet-encoded arrival of a streaming state.

    Produced by :meth:`IncrementalEncoderState._begin_append` (which already
    mutated the state's bookkeeping) and consumed by either the serial encode
    in :meth:`IncrementalEncoderState.append` or the cross-stream batched
    encode in :func:`append_batch`, then finalised by
    :meth:`IncrementalEncoderState._commit_row`.
    """

    index: int
    key: Hashable
    row: np.ndarray
    mask_row: np.ndarray
    position: Optional[float]
    delta_row: Optional[np.ndarray]
    same_row: Optional[np.ndarray]


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
        ``window_items``).  Caches grow automatically if exceeded.
    """

    def __init__(self, model, capacity: Optional[int] = None) -> None:
        self.model = model
        self._scheme = getattr(model.config, "encoding", "absolute")
        self._use_relative = (
            self._scheme == "rotary" and model.config.use_time_embeddings
        )
        self._capacity = max(int(capacity or _DEFAULT_CAPACITY), 1)
        self._num_blocks = len(model.encoder.blocks)
        #: Batched full re-encodes performed (absolute-scheme evictions only).
        self.rebuilds = 0
        #: Rows dropped via :meth:`evict_oldest` (rotary scheme only).
        self.evictions = 0
        self._check_absolute_bound(self._capacity)
        self._allocate_caches(self._capacity)
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

    def _allocate_caches(self, capacity: int) -> None:
        self._k_cache: List[np.ndarray] = []
        self._v_cache: List[np.ndarray] = []
        for block in self.model.encoder.blocks:
            attention = block.attention
            shape = (attention.num_heads, capacity, attention.d_head)
            self._k_cache.append(np.empty(shape, dtype=np.float64))
            self._v_cache.append(np.empty(shape, dtype=np.float64))
        self._capacity = capacity

    def _clear_bookkeeping(self) -> None:
        self._length = 0
        #: Global arrival index of ring row 0 (== rows evicted so far).
        self._base = 0
        self._key_order: Dict[Hashable, int] = {}
        self._key_counts: Dict[Hashable, int] = {}
        self._row_keys: List[Hashable] = []
        #: Per-row within-key rank and key code, kept as numpy ring buffers
        #: (parallel to the K/V caches) so the relative-coordinate inputs of
        #: every append are O(W) numpy slices instead of O(W) Python loops.
        self._rank_buf = np.empty(self._capacity, dtype=np.int64)
        self._code_buf = np.empty(self._capacity, dtype=np.int64)
        self._fused_rows: List[np.ndarray] = []
        self._fusion_states: Dict[Hashable, tuple] = {}
        self._latest_rep: Dict[Hashable, np.ndarray] = {}
        config = self.model.config
        self._tracker = CorrelationTracker(
            session_field=self.model.spec.session_field,
            use_key_correlation=config.use_key_correlation,
            use_value_correlation=config.use_value_correlation,
        )

    def _grow(self, minimum: int) -> None:
        self._check_absolute_bound(minimum)
        capacity = self._capacity
        while capacity < minimum:
            capacity *= 2
        if capacity == self._capacity:
            return
        for index in range(self._num_blocks):
            for caches in (self._k_cache, self._v_cache):
                old = caches[index]
                grown = np.empty((old.shape[0], capacity, old.shape[2]), dtype=np.float64)
                grown[:, : self._length, :] = old[:, : self._length, :]
                caches[index] = grown
        for name in ("_rank_buf", "_code_buf"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._length] = old[: self._length]
            setattr(self, name, grown)
        self._capacity = capacity

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
        new._k_cache = list(map(copy_array, self._k_cache))
        new._v_cache = list(map(copy_array, self._v_cache))
        new._key_order = dict(self._key_order)
        new._key_counts = dict(self._key_counts)
        new._row_keys = list(self._row_keys)
        new._rank_buf = self._rank_buf.copy()
        new._code_buf = self._code_buf.copy()
        new._fused_rows = list(map(copy_array, self._fused_rows))
        new._fusion_states = {
            key: tuple(map(copy_array, state)) for key, state in self._fusion_states.items()
        }
        new._latest_rep = {key: rep.copy() for key, rep in self._latest_rep.items()}
        new._tracker = copy.deepcopy(self._tracker, memo)
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
        """The live ``(K, V)`` cache slices of one block (for tests/diagnostics)."""
        return (
            self._k_cache[block_index][:, : self._length, :],
            self._v_cache[block_index][:, : self._length, :],
        )

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #
    def _next_coords(self, item: Item):
        """``(key_index, position, time_index)`` the next append will register.

        A pure peek (no mutation) mirroring the derivation inside
        :meth:`_register_item`; :func:`append_batch` uses it to gather every
        stream's embedding coordinates before the batched table lookup.
        """
        key_index = self._key_order.get(item.key)
        if key_index is None:
            key_index = len(self._key_order)
        return key_index, self._key_counts.get(item.key, 0), self._base + self._length

    def _register_item(self, item: Item, index: int, row: Optional[np.ndarray] = None):
        """Register row ``index``'s stream coordinates — the single source of
        truth for per-item bookkeeping, shared by :meth:`append` and
        :meth:`rebuild` so their exactness cannot drift apart.

        Returns ``(embedding_row, via_key, via_value)``: the item's raw
        embedding (computed here unless the batched path already embedded it
        via :meth:`_next_coords` + ``embed_items_inference``) and the earlier
        *global* positions visible to it through each correlation type
        (global == window-local while ``_base`` is 0, i.e. always, for the
        absolute scheme).
        """
        key = item.key
        key_index = self._key_order.setdefault(key, len(self._key_order))
        position = self._key_counts.get(key, 0)
        self._key_counts[key] = position + 1
        if row is None:
            row = self.model.input_embedding.embed_item_inference(
                item, key_index=key_index, position=position, time_index=self._base + index
            )
        via_key, via_value = self._tracker.observe(key, item.value)
        self._row_keys.append(key)
        self._rank_buf[index] = position
        self._code_buf[index] = key_index
        return row, via_key, via_value

    @staticmethod
    def _fill_mask_row(row: np.ndarray, index: int, via_key, via_value) -> None:
        """Zero the visible positions of one additive mask row in place.

        Shared by :meth:`append` and :meth:`rebuild` so the visibility rule
        cannot drift between the two paths.
        """
        row[index] = 0.0
        if via_key:
            row[via_key] = 0.0
        if via_value:
            row[via_value] = 0.0

    def _fuse_row(self, key: Hashable, encoded_row: np.ndarray) -> np.ndarray:
        """Fold one encoded row into its key's fusion state and record it.

        Shared by :meth:`append` and :meth:`rebuild` so the fusion replay
        cannot drift between the two paths.
        """
        representation = self.model.fusion_step_inference(self._fusion_states, key, encoded_row)
        self._latest_rep[key] = representation
        self._fused_rows.append(representation)
        return representation

    def _begin_append(self, item: Item, row: Optional[np.ndarray] = None) -> _PendingRow:
        """Register one arrival and stage everything its encode needs.

        Mutates the bookkeeping (key order, ranks, correlation tracker, mask
        inputs) exactly like the head of :meth:`append`; the caller must
        follow up with the per-block encode and :meth:`_commit_row`.  Shared
        by the serial :meth:`append` and the cross-stream :func:`append_batch`
        (which passes the pre-computed batched embedding ``row``) so the two
        paths cannot drift apart.
        """
        index = self._length
        self._check_absolute_bound(self._base + index + 1)
        if index >= self._capacity:
            self._grow(index + 1)

        key = item.key
        row, via_key, via_value = self._register_item(item, index, row=row)
        mask_row = np.full(index + 1, MASK_VALUE, dtype=np.float64)
        base = self._base
        if base:
            via_key = [p - base for p in via_key]
            via_value = [p - base for p in via_value]
        self._fill_mask_row(mask_row, index, via_key, via_value)

        position = None
        delta_row = None
        same_row = None
        if self._use_relative:
            position = float(base + index)
            reference = self.model.encoder.blocks[0].attention
            delta_row = reference.clip_rank_delta(
                self._rank_buf[index] - self._rank_buf[: index + 1]
            )
            same_row = (
                self._code_buf[: index + 1] == self._code_buf[index]
            ).astype(np.float64)
        return _PendingRow(
            index=index,
            key=key,
            row=row,
            mask_row=mask_row,
            position=position,
            delta_row=delta_row,
            same_row=same_row,
        )

    def _commit_row(self, pending: _PendingRow, encoded_row: np.ndarray) -> np.ndarray:
        """Fuse one encoded pending row and advance the cache length."""
        representation = self._fuse_row(pending.key, encoded_row)
        self._length += 1
        return representation

    def _commit_fused(self, pending: _PendingRow, representation: np.ndarray) -> np.ndarray:
        """Record an *already fused* pending row and advance the cache length.

        The batched path runs the fusion step itself (one gate GEMM across
        streams via ``KVEC.fusion_steps_inference``), so only the per-row
        bookkeeping of :meth:`_fuse_row` remains to be applied here.
        """
        self._latest_rep[pending.key] = representation
        self._fused_rows.append(representation)
        self._length += 1
        return representation

    def append(self, item: Item) -> np.ndarray:
        """Encode one new arrival in O(W·d) and return its fused representation.

        The new row's embedding, mask row, per-block attention (against the
        cached K/V of every earlier row) and fusion step are computed; nothing
        already cached is touched, which is exact because the mask is causal.
        """
        pending = self._begin_append(item)
        index = pending.index
        row = pending.row
        for block_index, block in enumerate(self.model.encoder.blocks):
            query, k_row, v_row = block.attention.project_qkv_row(
                row, position=pending.position
            )
            self._k_cache[block_index][:, index, :] = k_row
            self._v_cache[block_index][:, index, :] = v_row
            bias_row = (
                block.attention.relative_bias_row(pending.delta_row, pending.same_row)
                if self._use_relative
                else None
            )
            row = block.forward_inference_row(
                row,
                query,
                self._k_cache[block_index][:, : index + 1, :],
                self._v_cache[block_index][:, : index + 1, :],
                pending.mask_row,
                bias_row=bias_row,
            )
        return self._commit_row(pending, row)

    def evict_oldest(self) -> Hashable:
        """Drop row 0 from the ring in O(W·d); returns the evicted key.

        Only valid under the rotary scheme, whose cached rows are invariant
        to their window offset: the remaining K/V rows are simply shifted
        left one slot and every other per-row record pops its front entry.
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
        length = self._length
        self._rank_buf[: length - 1] = self._rank_buf[1:length]
        self._code_buf[: length - 1] = self._code_buf[1:length]
        for block_index in range(self._num_blocks):
            for caches in (self._k_cache, self._v_cache):
                cache = caches[block_index]
                cache[:, : length - 1, :] = cache[:, 1:length, :]
        self._tracker.forget_oldest(key, self._base)
        self._base += 1
        self._length -= 1
        self.evictions += 1
        return key

    def rebuild(self, items: Sequence[Item]) -> None:
        """Invalidate every cache and re-encode ``items`` in one batched pass.

        Called by the engine after a window eviction under the **absolute**
        scheme (see the module docstring).  The batched no-grad pass
        recomputes the embeddings, the full correlation mask, each block's
        K/V projections (which reseed the caches) and the per-key fusion
        replay.  Under the rotary scheme this reseeds the state as if
        ``items`` were a fresh stream (arrival indices restart at 0) — the
        serving engine never needs it, but tests use it to cross-check
        :meth:`append` against the batched encoder.
        """
        self._clear_bookkeeping()
        self.rebuilds += 1
        items = list(items)
        if not items:
            return
        length = len(items)
        self._check_absolute_bound(length)
        if length > self._capacity:
            self._grow(length)

        model = self.model
        embeddings = np.empty((length, model.config.d_model), dtype=np.float64)
        mask = np.full((length, length), MASK_VALUE, dtype=np.float64)
        for index, item in enumerate(items):
            embeddings[index], via_key, via_value = self._register_item(item, index)
            self._fill_mask_row(mask[index], index, via_key, via_value)

        coords = None
        if self._use_relative:
            coords = RelativeCoords(
                positions=np.arange(length, dtype=np.float64),
                key_ranks=self._rank_buf[:length].copy(),
                key_codes=self._code_buf[:length].copy(),
            )

        x = embeddings
        for block_index, block in enumerate(model.encoder.blocks):
            x, keys, values = block.forward_inference(
                x, mask=mask, return_kv=True, coords=coords
            )
            self._k_cache[block_index][:, :length, :] = keys
            self._v_cache[block_index][:, :length, :] = values

        for index in range(length):
            self._fuse_row(self._row_keys[index], x[index])

        self._length = length


def append_batch(
    states: Sequence[IncrementalEncoderState], items: Sequence[Item]
) -> List[np.ndarray]:
    """Encode one pending arrival of *each* state in one batched pass.

    The cross-stream batched encoding path of the sharded serving cluster:
    ``items[i]`` is appended to ``states[i]`` exactly as ``states[i].append``
    would, but the B rows are pushed through the block stack together — one
    ``(B, d_model)`` GEMM per projection/FFN and one batched attention einsum
    per block, instead of ``B`` separate GEMV chains.  Streams are
    independent (each row attends only against its own state's cached K/V,
    padded to the batch's longest window and masked), so batching is pure
    math-level restructuring: per-stream results match :meth:`append` up to
    BLAS summation-order noise (well below 1e-9), which is the same tolerance
    the incremental-vs-full parity suite already absorbs.

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

    # Batched embedding: peek every stream's next coordinates, gather all
    # rows with one table lookup per signal, then register as usual.
    coords = [state._next_coords(item) for state, item in zip(states, items)]
    rows = model.input_embedding.embed_items_inference(
        items,
        key_indices=[c[0] for c in coords],
        positions=[c[1] for c in coords],
        time_indices=[c[2] for c in coords],
    )
    pending = [
        state._begin_append(item, row=rows[index])
        for index, (state, item) in enumerate(zip(states, items))
    ]
    batch = len(states)
    lengths = [p.index + 1 for p in pending]
    t_max = max(lengths)
    use_relative = states[0]._use_relative

    x = np.stack([p.row for p in pending])
    mask = np.full((batch, t_max), MASK_VALUE, dtype=np.float64)
    for i, p in enumerate(pending):
        mask[i, : lengths[i]] = p.mask_row

    first_attention = model.encoder.blocks[0].attention
    phases = None
    delta_pad = None
    same_pad = None
    if use_relative:
        # Positions and the relative-coordinate rows are identical for every
        # block, so the rotary phases are computed once and the clipped
        # delta/same rows are padded once (pad deltas index table row 0 but
        # their same-key indicator is 0, so the padded bias is exactly 0).
        from repro.nn.attention import rotary_phases

        positions = np.asarray([p.position for p in pending], dtype=np.float64)
        phases = rotary_phases(positions, first_attention.d_head)
        delta_pad = np.zeros((batch, t_max), dtype=np.int64)
        same_pad = np.zeros((batch, t_max), dtype=np.float64)
        for i, p in enumerate(pending):
            delta_pad[i, : lengths[i]] = p.delta_row
            same_pad[i, : lengths[i]] = p.same_row

    # Padding slots are never written, so the pad buffers can be shared by
    # every block (each block overwrites only the [:length] prefixes).
    key_pad = np.zeros(
        (batch, first_attention.num_heads, t_max, first_attention.d_head),
        dtype=np.float64,
    )
    value_pad = np.zeros_like(key_pad)
    for block_index, block in enumerate(model.encoder.blocks):
        attention = block.attention
        query, keys, values = attention.project_qkv_rows(x, phases=phases)
        bias = (
            attention.relative_bias_rows(delta_pad, same_pad) if use_relative else None
        )
        for i, (state, p) in enumerate(zip(states, pending)):
            state._k_cache[block_index][:, p.index, :] = keys[i]
            state._v_cache[block_index][:, p.index, :] = values[i]
            key_pad[i, :, : lengths[i], :] = state._k_cache[block_index][:, : lengths[i], :]
            value_pad[i, :, : lengths[i], :] = state._v_cache[block_index][:, : lengths[i], :]
        x = block.forward_inference_rows(
            x, query, key_pad, value_pad, mask, bias_rows=bias
        )

    # Batched fusion: every stream's gate GEMVs stack into one GEMM.
    representations = model.fusion_steps_inference(
        [(state._fusion_states, p.key) for state, p in zip(states, pending)], x
    )
    return [
        state._commit_fused(p, representations[i])
        for i, (state, p) in enumerate(zip(states, pending))
    ]

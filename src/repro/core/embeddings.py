"""The KVRL input embedding (Section IV-B, "Input Embedding").

Each item of the tangled sequence is embedded as the **sum** of

* a *value embedding* — one learned embedding per value field, summed over
  fields (the paper assigns one embedding per distinct value; summing
  per-field embeddings is the natural factorised form when the value is an
  l-dimensional categorical vector),
* a *membership embedding* — indexed by which key-value sequence the item
  belongs to inside the current tangled sequence,
* a *relative position embedding* — the item's position within its own
  key-value sequence, and
* a *time embedding* — the item's global arrival order in the tangled stream.

The membership and time-related embeddings can be disabled for the Fig. 9
ablations.

Eviction-stable variant (``encoding="rotary"``)
-----------------------------------------------
The absolute scheme indexes the position/time tables by the item's offset
*within the current window*, so a sliding-window eviction silently re-labels
every retained item and invalidates any cached projection of it.  Under the
rotary scheme the time-related signal moves into attention (rotary phase
rotation by global arrival index plus a relative within-key position bias —
see :mod:`repro.nn.attention`), and the membership embedding is indexed by a
**stable hash of the key** instead of the key's first-appearance rank, so an
item's embedding is a pure function of the item itself.  Hash collisions
merely make two keys share a membership vector (a bucketed feature), they do
not affect exactness of streaming serving.
"""

from __future__ import annotations

import zlib
from typing import Hashable, Optional

import numpy as np

from repro.core.correlation import TangleColumns
from repro.data.items import TangledSequence, ValueSpec
from repro.nn.layers import Embedding
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor


def stable_key_slot(key: Hashable, num_slots: int) -> int:
    """Deterministic, process-independent hash bucket for a key.

    Python's builtin ``hash`` is salted per process; CRC32 of the key's
    string form is stable across runs, which keeps checkpointed rotary models
    reproducible.
    """
    return zlib.crc32(str(key).encode("utf-8")) % num_slots


class InputEmbedding(Module):
    """Embed the items of a tangled sequence into ``(T, d_model)``."""

    def __init__(
        self,
        spec: ValueSpec,
        d_model: int,
        max_positions: int = 256,
        max_keys: int = 64,
        max_time: int = 512,
        use_membership_embedding: bool = True,
        use_time_embeddings: bool = True,
        encoding: str = "absolute",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if encoding not in ("absolute", "rotary"):
            raise ValueError(f"unknown encoding {encoding!r}")
        self.spec = spec
        self.d_model = d_model
        self.max_positions = max_positions
        self.max_keys = max_keys
        self.max_time = max_time
        self.use_membership_embedding = use_membership_embedding
        self.use_time_embeddings = use_time_embeddings
        self.encoding = encoding

        self.value_embeddings = ModuleList(
            [Embedding(cardinality, d_model, rng=rng) for cardinality in spec.cardinalities]
        )
        self.membership_embedding = Embedding(max_keys, d_model, rng=rng)
        if encoding == "absolute":
            self.position_embedding = Embedding(max_positions, d_model, rng=rng)
            self.time_embedding = Embedding(max_time, d_model, rng=rng)
        else:
            # Rotary mode carries position/time on the attention side; no
            # absolute tables are allocated (keeps checkpoints lean).
            self.position_embedding = None
            self.time_embedding = None

    def key_slot(self, key: Hashable) -> int:
        """Membership-table row for ``key`` under the rotary scheme."""
        return stable_key_slot(key, self.max_keys)

    def table_coordinates(self, table: TangleColumns, start: int, stop: int):
        """Clipped embedding-table indices of rows ``[start, stop)`` of several tangles.

        ``table`` is a :class:`~repro.core.correlation.TangleColumns` tabled
        up to ``stop``.  Returns field codes ``(num_fields, B, L)`` and
        membership, position and time ``(B, L)`` for ``L = stop - start``:
        exactly the rows :meth:`embed_rows` gathers.  Rows past a tangle's
        length read 0.  Under the absolute scheme membership is the key's
        first-appearance rank, position its rank within its key and time the
        row index; under the rotary scheme the position/time columns stay
        zero (those signals live on the attention side) and membership is
        the key's stable hash slot.
        """
        rows = np.arange(start, stop)
        live = table.live(start, stop)
        field_codes = table.field_codes(start, stop)
        if self.encoding == "rotary":
            membership = np.zeros(live.shape, dtype=int)
            for i, tangle in enumerate(table.tangles):
                slots = np.array([self.key_slot(key) for key in tangle.keys], dtype=int)
                membership[i] = np.where(live[i], slots[table.codes[i, start:stop]], 0)
            unused = np.zeros(live.shape, dtype=int)
            return field_codes, membership, unused, unused
        membership = np.minimum(table.codes[:, start:stop], self.max_keys - 1)
        positions = np.minimum(table.ranks[:, start:stop], self.max_positions - 1)
        times = np.where(live, np.minimum(rows, self.max_time - 1), 0)
        return field_codes, membership, positions, times

    def embed_rows(
        self,
        field_codes: np.ndarray,
        membership: np.ndarray,
        positions: np.ndarray,
        times: np.ndarray,
    ) -> Tensor:
        """Autograd embed of rows from precomputed table indices.

        ``field_codes`` is ``(num_fields, B)`` and the coordinate arrays are
        ``(B,)`` — columns of :meth:`table_coordinates`, already clipped,
        from one tangle or stacked from several.  Rows are summed in a fixed
        order (value fields, then membership, then position, then time), the
        same as :meth:`embed_item_inference`, and gradients scatter back into
        the gathered table rows.
        """
        embedded = self.value_embeddings[0](field_codes[0])
        for field_index in range(1, self.spec.num_fields):
            embedded = embedded + self.value_embeddings[field_index](field_codes[field_index])
        if self.use_membership_embedding:
            embedded = embedded + self.membership_embedding(membership)
        if self.use_time_embeddings and self.encoding == "absolute":
            embedded = embedded + self.position_embedding(positions)
            embedded = embedded + self.time_embedding(times)
        return embedded

    def forward(self, tangle: TangledSequence, upto: Optional[int] = None) -> Tensor:
        """Return the dynamic embedding matrix ``E0`` for ``tangle[:upto]``.

        Rows are ordered by arrival, matching the correlation mask layout;
        the prefix's coordinates come from its column table.
        """
        length = tangle.prefix_length(upto)
        if length == 0:
            raise ValueError("cannot embed an empty tangled sequence")
        table = TangleColumns([tangle], [length])
        table.extend(length)
        return self.embed_rows(
            *(column[..., 0, :] for column in self.table_coordinates(table, 0, length))
        )

    def forward_inference(
        self,
        field_codes: np.ndarray,
        membership: np.ndarray,
        positions: np.ndarray,
        times: np.ndarray,
    ) -> np.ndarray:
        """Raw-array :meth:`embed_rows` (no autograd graph).

        One table gather per signal over the clipped indices of
        :meth:`table_coordinates`, in any shape.  The gathered rows are
        summed in the order :meth:`embed_item_inference` adds them (value
        fields, then membership, then position and time under the absolute
        scheme), so every row equals the per-item embed bit for bit.
        """
        rows = self.value_embeddings[0].weight.data[field_codes[0]]
        for field_index in range(1, self.spec.num_fields):
            rows += self.value_embeddings[field_index].weight.data[field_codes[field_index]]
        if self.use_membership_embedding:
            rows += self.membership_embedding.weight.data[membership]
        if self.use_time_embeddings and self.encoding == "absolute":
            rows += self.position_embedding.weight.data[positions]
            rows += self.time_embedding.weight.data[times]
        return rows

    def embed_item_inference(
        self, item, key_index: int, position: int, time_index: int
    ) -> np.ndarray:
        """Embed one item given its tangled-stream coordinates.

        Summation order matches :meth:`forward` (value fields, membership,
        relative position, time) so streaming callers reproduce the batched
        embedding bit for bit.  Under the rotary scheme the window-relative
        coordinates are ignored: the membership row is the key's stable hash
        slot and position/time live on the attention side, so the returned
        row depends on the item alone (the eviction-stability invariant).
        """
        row = self.value_embeddings[0].weight.data[item.field(0)].copy()
        for field_index in range(1, self.spec.num_fields):
            row += self.value_embeddings[field_index].weight.data[item.field(field_index)]
        if self.encoding == "rotary":
            if self.use_membership_embedding:
                row += self.membership_embedding.weight.data[self.key_slot(item.key)]
            return row
        if self.use_membership_embedding:
            row += self.membership_embedding.weight.data[min(key_index, self.max_keys - 1)]
        if self.use_time_embeddings:
            row += self.position_embedding.weight.data[min(position, self.max_positions - 1)]
            row += self.time_embedding.weight.data[min(time_index, self.max_time - 1)]
        return row

    def embed_items_inference(
        self, items, key_indices, positions, time_indices
    ) -> np.ndarray:
        """Batched :meth:`embed_item_inference`: one table gather per signal.

        ``items`` come from ``B`` *independent* streams and the coordinate
        lists are parallel to them.  Returns the ``(B, d_model)`` embedding
        rows, identical per row to the single-item path (the same table rows
        are gathered and summed in the same order).
        """
        # Advanced (list) indexing already materialises a fresh array — no
        # defensive copy needed, unlike the scalar row lookup above.
        rows = self.value_embeddings[0].weight.data[
            [item.field(0) for item in items]
        ]
        for field_index in range(1, self.spec.num_fields):
            rows += self.value_embeddings[field_index].weight.data[
                [item.field(field_index) for item in items]
            ]
        if self.encoding == "rotary":
            if self.use_membership_embedding:
                rows += self.membership_embedding.weight.data[
                    [self.key_slot(item.key) for item in items]
                ]
            return rows
        if self.use_membership_embedding:
            rows += self.membership_embedding.weight.data[
                np.minimum(np.asarray(key_indices), self.max_keys - 1)
            ]
        if self.use_time_embeddings:
            rows += self.position_embedding.weight.data[
                np.minimum(np.asarray(positions), self.max_positions - 1)
            ]
            rows += self.time_embedding.weight.data[
                np.minimum(np.asarray(time_indices), self.max_time - 1)
            ]
        return rows

"""The tangled key-value sequence data model.

A *tangled key-value sequence* (Section III of the paper) is a chronologically
ordered stream of items, where each item carries a **key** (the sequence it
belongs to, e.g. a network flow five-tuple or a user id) and a **value**
(an l-dimensional feature vector, e.g. packet size and direction).  All items
sharing a key form one *key-value sequence* ``S_k``, and the classification
target is a label per key.

This package provides:

* :class:`~repro.data.items.Item`, :class:`~repro.data.items.KeyValueSequence`
  and :class:`~repro.data.items.TangledSequence` — the core containers,
* :class:`~repro.data.items.ValueSpec` — schema of the value fields
  (cardinalities and which field defines sessions),
* :mod:`~repro.data.sessions` — session segmentation (bursts in traffic,
  same-genre runs in MovieLens),
* :mod:`~repro.data.tangle` — interleaving per-key sequences into tangled
  streams with a controllable concurrency level ``K``,
* :mod:`~repro.data.splits` — key-disjoint train/validation/test splits and
  k-fold cross validation,
* :mod:`~repro.data.batching` — iteration over tangled sequences in epochs.
"""

from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec
from repro.data.sessions import Session, segment_sessions, session_lengths
from repro.data.tangle import interleave_sequences, retangle_by_concurrency
from repro.data.splits import DatasetSplit, kfold_splits, split_by_key
from repro.data.batching import EpisodeBatcher
from repro.data.stream import SlidingWindow, StreamEvent, merge_streams, replay
from repro.data import augment

# NOTE: ``repro.data.io`` is intentionally not imported here — it serializes
# prediction records and therefore depends on ``repro.core``, which itself
# depends on this package.  Import it directly (``from repro.data import io``
# works once the package is loaded, or ``import repro.data.io``).

__all__ = [
    "StreamEvent",
    "replay",
    "merge_streams",
    "SlidingWindow",
    "augment",
    "Item",
    "KeyValueSequence",
    "TangledSequence",
    "ValueSpec",
    "Session",
    "segment_sessions",
    "session_lengths",
    "interleave_sequences",
    "retangle_by_concurrency",
    "DatasetSplit",
    "split_by_key",
    "kfold_splits",
    "EpisodeBatcher",
]

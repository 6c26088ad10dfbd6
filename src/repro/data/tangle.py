"""Interleaving per-key sequences into tangled streams.

The raw unit produced by the dataset generators is a set of labelled
:class:`~repro.data.items.KeyValueSequence` objects.  Training and evaluation
operate on :class:`~repro.data.items.TangledSequence` objects — mixtures of
``K`` concurrent key-value sequences, matching the scenarios of Fig. 1 and the
concurrency experiment of Fig. 12.

Both entry points build each tangled :class:`~repro.data.items.Item` once,
at time ``(t - base) + u``: ``base`` re-bases a sequence (zero when merging
as is) and ``u`` is the item's jitter.  A tangle's jitter is one
``rng.uniform(0.0, jitter, size=n)`` vector over its ``n`` items in sequence
order, which equals the ``n`` scalar ``rng.uniform(0.0, jitter)`` draws it
replaces, value for value and in the same order.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec


def _tangle(
    sequences: Sequence[KeyValueSequence],
    bases: Sequence[float],
    spec: ValueSpec,
    rng: Optional[np.random.Generator],
    jitter: float,
    name: str,
) -> TangledSequence:
    """One tangle of ``sequences``, each item at ``(t - base) + u``."""
    keys = [sequence.key for sequence in sequences]
    if len(set(keys)) != len(keys):
        raise ValueError("sequences must have distinct keys")
    labels: Dict[Hashable, int] = {}
    for sequence in sequences:
        if sequence.label is None:
            raise ValueError(f"sequence {sequence.key!r} has no label")
        labels[sequence.key] = sequence.label

    if jitter > 0:
        rng = rng or np.random.default_rng()
        count = sum(len(sequence.items) for sequence in sequences)
        noise = iter(rng.uniform(0.0, jitter, size=count).tolist())
    else:
        noise = repeat(0.0)
    items = [
        Item(item.key, item.value, (item.time - base) + next(noise))
        for sequence, base in zip(sequences, bases)
        for item in sequence.items
    ]
    return TangledSequence(items, labels, spec, name=name)


def interleave_sequences(
    sequences: Sequence[KeyValueSequence],
    spec: ValueSpec,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.0,
    name: str = "",
) -> TangledSequence:
    """Merge key-value sequences into one tangled sequence by arrival time.

    Parameters
    ----------
    sequences:
        The labelled per-key sequences to merge.  Every sequence must have a
        label and a distinct key.
    spec:
        Value schema shared by all sequences.
    rng, jitter:
        If ``jitter > 0`` each item's time receives uniform noise in
        ``[0, jitter)``, which breaks ties between generators that emit items
        at identical nominal times and produces a realistic interleaving.
        A negative (or NaN) ``jitter`` is rejected.
    """
    if not jitter >= 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    return _tangle(sequences, [0.0] * len(sequences), spec, rng, jitter, name)


def retangle_by_concurrency(
    sequences: Sequence[KeyValueSequence],
    spec: ValueSpec,
    concurrency: int,
    rng: Optional[np.random.Generator] = None,
    name_prefix: str = "tangle",
) -> List[TangledSequence]:
    """Group sequences into tangled sequences of ``concurrency`` keys each.

    This implements the testing scenarios of the paper's Fig. 12 ("effects of
    K"): the same pool of key-value sequences is evaluated while varying the
    number of concurrent sequences ``K`` mixed into each tangled stream.

    Sequences are shuffled, grouped into chunks of size ``concurrency`` and
    each chunk is interleaved on a shared time axis (every sequence's items
    are shifted to start at time zero so the chunk genuinely overlaps, with
    a jitter of ``1e-6``).  Empty sequences are dropped, and a
    chunk left empty makes no tangle (the next tangle's name still counts
    it).  A trailing chunk smaller than ``concurrency`` is kept.
    """
    if concurrency <= 0:
        raise ValueError("concurrency must be a positive integer")
    rng = rng or np.random.default_rng()
    order = list(range(len(sequences)))
    rng.shuffle(order)

    tangles: List[TangledSequence] = []
    for chunk_start in range(0, len(order), concurrency):
        chunk = [
            sequences[i] for i in order[chunk_start : chunk_start + concurrency] if len(sequences[i])
        ]
        if not chunk:
            continue
        tangles.append(
            _tangle(
                chunk,
                [sequence.items[0].time for sequence in chunk],
                spec,
                rng,
                1e-6,
                f"{name_prefix}-{chunk_start // concurrency}",
            )
        )
    return tangles

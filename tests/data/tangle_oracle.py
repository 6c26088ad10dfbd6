"""The two-pass tangling that :mod:`repro.data.tangle` replaced.

``retangle_by_concurrency`` and ``interleave_sequences`` now share one pass
that builds each tangled item once.  This module keeps the passes they
replaced as the oracle they must equal exactly, and is not collected by
pytest: :func:`two_pass_retangle` builds a shifted ``Item`` per item and a
re-sorted ``KeyValueSequence`` per sequence, then hands the chunk to
:func:`two_pass_interleave`, which builds the jittered ``Item`` with one
scalar ``rng.uniform(0.0, jitter)`` draw per item.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec


def two_pass_interleave(
    sequences: Sequence[KeyValueSequence],
    spec: ValueSpec,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.0,
    name: str = "",
) -> TangledSequence:
    keys = [sequence.key for sequence in sequences]
    if len(set(keys)) != len(keys):
        raise ValueError("sequences must have distinct keys")
    labels: Dict[Hashable, int] = {}
    for sequence in sequences:
        if sequence.label is None:
            raise ValueError(f"sequence {sequence.key!r} has no label")
        labels[sequence.key] = sequence.label

    rng = rng or np.random.default_rng()
    items: List[Item] = []
    for sequence in sequences:
        for item in sequence:
            time = item.time + (float(rng.uniform(0.0, jitter)) if jitter > 0 else 0.0)
            items.append(Item(item.key, item.value, time))
    return TangledSequence(items, labels, spec, name=name)


def two_pass_retangle(
    sequences: Sequence[KeyValueSequence],
    spec: ValueSpec,
    concurrency: int,
    rng: Optional[np.random.Generator] = None,
    name_prefix: str = "tangle",
) -> List[TangledSequence]:
    if concurrency <= 0:
        raise ValueError("concurrency must be a positive integer")
    rng = rng or np.random.default_rng()
    order = list(range(len(sequences)))
    rng.shuffle(order)

    tangles: List[TangledSequence] = []
    for chunk_start in range(0, len(order), concurrency):
        chunk = [sequences[i] for i in order[chunk_start : chunk_start + concurrency]]
        shifted: List[KeyValueSequence] = []
        for sequence in chunk:
            if not len(sequence):
                continue
            base = sequence.items[0].time
            items = [Item(item.key, item.value, item.time - base) for item in sequence]
            shifted.append(KeyValueSequence(sequence.key, items, sequence.label))
        if not shifted:
            continue
        tangles.append(
            two_pass_interleave(
                shifted,
                spec,
                rng=rng,
                jitter=1e-6,
                name=f"{name_prefix}-{chunk_start // concurrency}",
            )
        )
    return tangles

"""Epoch iteration over tangled sequences.

The unit of training in KVEC is one *episode* per tangled key-value sequence
(Algorithm 1 iterates over the tangled sequences of the training set).  The
:class:`EpisodeBatcher` shuffles tangled sequences every epoch and yields them
in (optionally) fixed-size groups, one minibatch per optimizer step (the
paper uses 64).  The trainer runs each minibatch's episodes together: it
splits the minibatch into length-homogeneous groups, pads each group's
tangles to a common length and encodes them as ``(B, T, d_model)`` batches
(:mod:`repro.core.batched_episodes`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.data.items import TangledSequence


class EpisodeBatcher:
    """Shuffle and group tangled sequences into per-epoch batches."""

    def __init__(
        self,
        tangles: Sequence[TangledSequence],
        batch_size: int = 1,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.tangles = list(tangles)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng or np.random.default_rng()

    def __len__(self) -> int:
        """Number of batches per epoch."""
        full, remainder = divmod(len(self.tangles), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def epoch(self) -> Iterator[List[TangledSequence]]:
        """Yield batches (lists) of tangled sequences for one epoch."""
        order = list(range(len(self.tangles)))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                return
            yield [self.tangles[i] for i in indices]

    def __iter__(self) -> Iterator[List[TangledSequence]]:
        return self.epoch()

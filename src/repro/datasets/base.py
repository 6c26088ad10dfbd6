"""Common containers and the categorical sampler of the dataset generators."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.data.items import KeyValueSequence, ValueSpec

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


class CategoricalSampler:
    """Draws codes ``0 .. len(p) - 1`` with probabilities ``p``, one at a time.

    ``sampler(rng)`` returns exactly ``int(rng.choice(len(p), p=p))`` and
    advances ``rng`` by the same single ``random()`` draw, so a generator
    that swaps one for the other produces the same data.  ``choice`` checks
    ``p`` and rebuilds its CDF (``cdf = p.cumsum(); cdf /= cdf[-1]``) on
    every call; the sampler does both once, and each draw is the
    ``cdf.searchsorted(rng.random(), side="right")`` that ``choice`` then
    computes.  ``bisect_right`` over the CDF as Python floats makes the same
    comparisons on the same doubles: the CDF is non-decreasing, because
    adding a non-negative term or dividing by a positive one never lowers a
    rounded value.
    """

    def __init__(self, p: Sequence[float]) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or not p.size:
            raise ValueError("p must be a non-empty 1-dimensional vector")
        total = float(p.sum())
        if np.isnan(total):
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.p = p
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def __call__(self, rng: np.random.Generator) -> int:
        return bisect_right(self._cdf, rng.random())


@dataclass
class DatasetStatistics:
    """The summary statistics reported in Table I of the paper."""

    name: str
    num_keys: int
    avg_sequence_length: float
    avg_session_length: float
    num_classes: int

    def as_row(self) -> Tuple[str, int, float, float, int]:
        return (
            self.name,
            self.num_keys,
            round(self.avg_sequence_length, 1),
            round(self.avg_session_length, 1),
            self.num_classes,
        )


@dataclass
class GeneratedDataset:
    """A generated dataset: labelled per-key sequences plus their schema.

    Attributes
    ----------
    name:
        Dataset identifier (matches the paper's dataset names).
    sequences:
        One labelled :class:`KeyValueSequence` per key.
    spec:
        Schema of the value field.
    num_classes:
        Number of distinct labels.
    class_names:
        Optional human-readable label names.
    true_stop_positions:
        Only set for the Synthetic-Traffic dataset: the ground-truth halting
        position (1-based item count) per key, used by the Fig. 11 experiment.
    """

    name: str
    sequences: List[KeyValueSequence]
    spec: ValueSpec
    num_classes: int
    class_names: Tuple[str, ...] = ()
    true_stop_positions: Dict[Hashable, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = {sequence.label for sequence in self.sequences}
        if None in labels:
            raise ValueError("every generated sequence must be labelled")
        for label in labels:
            if not 0 <= int(label) < self.num_classes:
                raise ValueError(
                    f"label {label} outside [0, {self.num_classes}) in dataset {self.name}"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    def labels(self) -> Dict[Hashable, int]:
        """Mapping from key to label over all sequences."""
        return {sequence.key: int(sequence.label) for sequence in self.sequences}

    def sequences_of_class(self, label: int) -> List[KeyValueSequence]:
        return [sequence for sequence in self.sequences if sequence.label == label]

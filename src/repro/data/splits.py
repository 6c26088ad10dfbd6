"""Key-disjoint dataset splits.

The paper splits every dataset into training/validation/test subsets with
proportion 8:1:1 **based on the key field** so that no key appears in two
subsets (Section V-A4), and reports five-fold cross-validation averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.items import KeyValueSequence


@dataclass
class DatasetSplit:
    """Per-key sequences partitioned into train / validation / test."""

    train: List[KeyValueSequence]
    validation: List[KeyValueSequence]
    test: List[KeyValueSequence]

    def sizes(self) -> Tuple[int, int, int]:
        return len(self.train), len(self.validation), len(self.test)

    def all_keys_disjoint(self) -> bool:
        """True when no key appears in more than one subset."""
        train_keys = {s.key for s in self.train}
        val_keys = {s.key for s in self.validation}
        test_keys = {s.key for s in self.test}
        return not (train_keys & val_keys or train_keys & test_keys or val_keys & test_keys)


def split_by_key(
    sequences: Sequence[KeyValueSequence],
    proportions: Tuple[float, float, float] = (0.8, 0.1, 0.1),
    rng: Optional[np.random.Generator] = None,
    stratify: bool = True,
) -> DatasetSplit:
    """Split sequences into key-disjoint subsets.

    Parameters
    ----------
    sequences:
        Labelled per-key sequences.
    proportions:
        Fractions for (train, validation, test): three non-negative numbers
        that sum to 1.
    rng:
        Random generator controlling the shuffle.
    stratify:
        When True the split is performed per class label so every subset has
        (approximately) the original class balance — important for the small
        ``unit`` scale preset where naive splitting can drop a class entirely.
    """
    if len(proportions) != 3:
        raise ValueError(f"proportions must be (train, validation, test), got {proportions}")
    if not all(fraction >= 0 for fraction in proportions):
        raise ValueError(f"proportions must be non-negative, got {proportions}")
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1, got {proportions}")
    rng = rng or np.random.default_rng()

    if stratify:
        by_label: dict = {}
        for sequence in sequences:
            by_label.setdefault(sequence.label, []).append(sequence)
        groups = [by_label[label] for label in sorted(by_label, key=str)]
    else:
        groups = [list(sequences)]

    train: List[KeyValueSequence] = []
    validation: List[KeyValueSequence] = []
    test: List[KeyValueSequence] = []
    for group in groups:
        order = list(range(len(group)))
        rng.shuffle(order)
        n = len(group)
        n_val = int(round(proportions[1] * n))
        n_test = int(round(proportions[2] * n))
        # Rounding must not starve a requested subset: with e.g. 7 keys per
        # class and an 8:1:1 split, round(0.1 * 7) = 1 but the remainder for
        # the test subset would be 0.  Guarantee at least one key for every
        # subset with a non-zero proportion whenever the group is big enough.
        if proportions[1] > 0 and n_val == 0 and n >= 3:
            n_val = 1
        if proportions[2] > 0 and n_test == 0 and n >= 3:
            n_test = 1
        n_val = min(n_val, n)
        n_test = min(n_test, n - n_val)
        n_train = n - n_val - n_test
        for position, index in enumerate(order):
            if position < n_train:
                train.append(group[index])
            elif position < n_train + n_val:
                validation.append(group[index])
            else:
                test.append(group[index])
    return DatasetSplit(train=train, validation=validation, test=test)


def kfold_splits(
    sequences: Sequence[KeyValueSequence],
    folds: int = 5,
    validation_fraction: float = 0.1,
    rng: Optional[np.random.Generator] = None,
) -> List[DatasetSplit]:
    """Produce ``folds`` key-disjoint cross-validation splits.

    In each fold, one of ``folds`` equal key partitions is the test subset;
    ``validation_fraction`` of the remaining keys form the validation subset
    and the rest are training keys.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    rng = rng or np.random.default_rng()
    order = list(range(len(sequences)))
    rng.shuffle(order)
    partitions: List[List[int]] = [order[i::folds] for i in range(folds)]

    splits: List[DatasetSplit] = []
    for fold in range(folds):
        test_idx = set(partitions[fold])
        remaining = [i for i in order if i not in test_idx]
        n_val = max(1, int(round(validation_fraction * len(remaining)))) if remaining else 0
        val_idx = set(remaining[:n_val])
        splits.append(
            DatasetSplit(
                train=[sequences[i] for i in remaining if i not in val_idx],
                validation=[sequences[i] for i in sorted(val_idx)],
                test=[sequences[i] for i in sorted(test_idx)],
            )
        )
    return splits


def class_distribution(sequences: Sequence[KeyValueSequence]) -> dict:
    """Return a mapping ``label -> count`` over the given sequences."""
    counts: dict = {}
    for sequence in sequences:
        counts[sequence.label] = counts.get(sequence.label, 0) + 1
    return counts

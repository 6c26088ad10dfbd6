"""Tests for key-disjoint dataset splits and k-fold cross validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.items import Item, KeyValueSequence
from repro.data.splits import class_distribution, kfold_splits, split_by_key


def make_sequences(count, num_classes=3):
    sequences = []
    for index in range(count):
        items = [Item(f"k{index}", (0,), float(i)) for i in range(3)]
        sequences.append(KeyValueSequence(f"k{index}", items, label=index % num_classes))
    return sequences


class TestSplitByKey:
    def test_sizes_follow_proportions(self):
        split = split_by_key(make_sequences(100), rng=np.random.default_rng(0))
        train, validation, test = split.sizes()
        assert train + validation + test == 100
        # Stratified per-class rounding can shift a couple of keys between subsets.
        assert abs(train - 80) <= 3
        assert abs(validation - 10) <= 3
        assert abs(test - 10) <= 3

    def test_sizes_exact_when_classes_divide_evenly(self):
        split = split_by_key(make_sequences(100, num_classes=2), rng=np.random.default_rng(0))
        assert split.sizes() == (80, 10, 10)

    def test_keys_are_disjoint(self):
        split = split_by_key(make_sequences(50), rng=np.random.default_rng(1))
        assert split.all_keys_disjoint()

    def test_all_sequences_are_assigned(self):
        sequences = make_sequences(37)
        split = split_by_key(sequences, rng=np.random.default_rng(2))
        assert sum(split.sizes()) == len(sequences)

    def test_stratified_split_keeps_all_classes_in_train(self):
        split = split_by_key(make_sequences(30, num_classes=3), rng=np.random.default_rng(3))
        assert set(class_distribution(split.train)) == {0, 1, 2}

    def test_unstratified_split_also_assigns_everything(self):
        sequences = make_sequences(23)
        split = split_by_key(sequences, rng=np.random.default_rng(4), stratify=False)
        assert sum(split.sizes()) == len(sequences)

    def test_invalid_proportions_rejected(self):
        with pytest.raises(ValueError):
            split_by_key(make_sequences(10), proportions=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize(
        "proportions", [(-0.1, 0.6, 0.5), (0.9, 0.1)], ids=["negative", "two fractions"]
    )
    def test_malformed_proportions_rejected(self, proportions):
        with pytest.raises(ValueError, match="proportions must be"):
            split_by_key(make_sequences(10), proportions=proportions)

    def test_deterministic_given_seed(self):
        sequences = make_sequences(40)
        first = split_by_key(sequences, rng=np.random.default_rng(7))
        second = split_by_key(sequences, rng=np.random.default_rng(7))
        assert [s.key for s in first.train] == [s.key for s in second.train]

    @given(st.integers(min_value=10, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_split_is_a_partition(self, count):
        sequences = make_sequences(count)
        split = split_by_key(sequences, rng=np.random.default_rng(count))
        keys = sorted(
            [s.key for s in split.train]
            + [s.key for s in split.validation]
            + [s.key for s in split.test]
        )
        assert keys == sorted(s.key for s in sequences)
        assert split.all_keys_disjoint()


class TestKFold:
    def test_number_of_folds(self):
        folds = kfold_splits(make_sequences(25), folds=5, rng=np.random.default_rng(0))
        assert len(folds) == 5

    def test_each_sequence_is_tested_exactly_once(self):
        sequences = make_sequences(23)
        folds = kfold_splits(sequences, folds=5, rng=np.random.default_rng(1))
        tested = sorted(key for fold in folds for key in (s.key for s in fold.test))
        assert tested == sorted(s.key for s in sequences)

    def test_folds_are_key_disjoint(self):
        folds = kfold_splits(make_sequences(30), folds=3, rng=np.random.default_rng(2))
        for fold in folds:
            assert fold.all_keys_disjoint()

    def test_requires_at_least_two_folds(self):
        with pytest.raises(ValueError):
            kfold_splits(make_sequences(10), folds=1)

    def test_class_distribution_counts(self):
        distribution = class_distribution(make_sequences(9, num_classes=3))
        assert distribution == {0: 3, 1: 3, 2: 3}

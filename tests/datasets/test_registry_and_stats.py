"""Tests for the dataset registry, base containers and Table I statistics."""

import pytest

from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.datasets.base import DatasetStatistics, GeneratedDataset
from repro.datasets.registry import DATASET_BUILDERS, PAPER_STATISTICS, build_dataset
from repro.datasets.stats import compute_statistics, statistics_table


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        assert set(DATASET_BUILDERS) == {
            "USTC-TFC2016",
            "MovieLens-1M",
            "Traffic-FG",
            "Traffic-App",
            "Synthetic-Traffic",
        }

    def test_paper_statistics_cover_all_datasets(self):
        assert set(PAPER_STATISTICS) == set(DATASET_BUILDERS)

    def test_build_dataset_by_name(self):
        dataset = build_dataset("USTC-TFC2016", num_keys=18, seed=1)
        assert len(dataset) == 18

    def test_build_dataset_forwards_overrides(self):
        dataset = build_dataset("Synthetic-Traffic", num_keys=8, subset="late", flow_length=30)
        assert "late" in dataset.name

    def test_seed_zero_is_a_seed(self):
        def values(dataset):
            return [[item.value for item in sequence] for sequence in dataset.sequences]

        at_zero = build_dataset("USTC-TFC2016", num_keys=18, seed=0)
        assert values(at_zero) == values(DATASET_BUILDERS["USTC-TFC2016"](num_keys=18, seed=0))
        assert values(at_zero) != values(build_dataset("USTC-TFC2016", num_keys=18))

    def test_traffic_builders_take_no_overrides(self):
        with pytest.raises(TypeError):
            build_dataset("USTC-TFC2016", num_keys=9, mean_flow_length=40.0)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            build_dataset("no-such-dataset")

    def test_paper_statistics_match_table1_values(self):
        stats = PAPER_STATISTICS["MovieLens-1M"]
        assert stats.num_keys == 6040
        assert stats.avg_sequence_length == pytest.approx(163.5)
        assert stats.num_classes == 2


class TestGeneratedDatasetContainer:
    def make_dataset(self, labels):
        spec = ValueSpec(("v",), (4,), 0)
        sequences = [
            KeyValueSequence(f"k{i}", [Item(f"k{i}", (0,), 0.0)], label)
            for i, label in enumerate(labels)
        ]
        return GeneratedDataset("toy", sequences, spec, num_classes=2)

    def test_labels_mapping(self):
        dataset = self.make_dataset([0, 1, 1])
        assert dataset.labels() == {"k0": 0, "k1": 1, "k2": 1}

    def test_sequences_of_class(self):
        dataset = self.make_dataset([0, 1, 1])
        assert len(dataset.sequences_of_class(1)) == 2

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            self.make_dataset([0, 5])

    def test_unlabelled_sequence_rejected(self):
        with pytest.raises(ValueError):
            self.make_dataset([0, None])


class TestStatistics:
    def test_compute_statistics_fields(self):
        dataset = build_dataset("USTC-TFC2016", num_keys=18, seed=1)
        stats = compute_statistics(dataset)
        assert isinstance(stats, DatasetStatistics)
        assert stats.num_keys == 18
        assert stats.num_classes == 9
        assert stats.avg_sequence_length > 0
        assert stats.avg_session_length >= 1.0

    def test_statistics_table_renders_all_rows(self):
        datasets = [build_dataset("USTC-TFC2016", num_keys=9, seed=1)]
        table = statistics_table(datasets)
        assert "USTC-TFC2016" in table
        assert "#keys" in table

    def test_as_row_rounding(self):
        stats = DatasetStatistics("x", 10, 12.345, 6.789, 3)
        assert stats.as_row() == ("x", 10, 12.3, 6.8, 3)

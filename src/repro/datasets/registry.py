"""Registry of dataset builders and the paper's published Table I statistics."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.datasets.base import DatasetStatistics, GeneratedDataset
from repro.datasets.movielens import make_movielens_1m
from repro.datasets.synthetic_stop import make_synthetic_traffic
from repro.datasets.traffic import make_traffic_app, make_traffic_fg, make_ustc_tfc2016

#: Builders keyed by the dataset name used throughout the paper.  Each builder
#: accepts ``num_keys`` (the number of key-value sequences to generate) and a
#: ``seed``.  MovieLens-1M and Synthetic-Traffic forward extra keyword
#: arguments to their generator configs (Synthetic-Traffic's ``subset``
#: included); the three traffic builders take none.
DATASET_BUILDERS: Dict[str, Callable[..., GeneratedDataset]] = {
    "USTC-TFC2016": lambda num_keys=320, seed=7: make_ustc_tfc2016(num_keys, seed=seed),
    "MovieLens-1M": lambda num_keys=200, seed=23, **kw: make_movielens_1m(num_keys, seed=seed, **kw),
    "Traffic-FG": lambda num_keys=600, seed=11: make_traffic_fg(num_keys, seed=seed),
    "Traffic-App": lambda num_keys=500, seed=13: make_traffic_app(num_keys, seed=seed),
    "Synthetic-Traffic": lambda num_keys=200, seed=31, **kw: make_synthetic_traffic(num_keys, seed=seed, **kw),
}

#: Table I as published in the paper, used by EXPERIMENTS.md comparisons and
#: the Table I benchmark (paper value vs our generated value).
PAPER_STATISTICS: Dict[str, DatasetStatistics] = {
    "USTC-TFC2016": DatasetStatistics("USTC-TFC2016", 3200, 31.2, 8.3, 9),
    "MovieLens-1M": DatasetStatistics("MovieLens-1M", 6040, 163.5, 1.7, 2),
    "Traffic-FG": DatasetStatistics("Traffic-FG", 60000, 50.7, 2.4, 12),
    "Traffic-App": DatasetStatistics("Traffic-App", 50000, 57.5, 2.7, 10),
    "Synthetic-Traffic": DatasetStatistics("Synthetic-Traffic", 10000, 100.0, 2.1, 2),
}


def build_dataset(
    name: str, num_keys: int = 0, seed: Optional[int] = None, **kwargs
) -> GeneratedDataset:
    """Build a dataset by its paper name.

    ``num_keys=0`` selects the builder's default size and ``seed=None`` its
    default seed; any other seed, 0 included, is passed on as given.
    """
    if name not in DATASET_BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASET_BUILDERS)}")
    builder = DATASET_BUILDERS[name]
    call_kwargs = dict(kwargs)
    if num_keys:
        call_kwargs["num_keys"] = num_keys
    if seed is not None:
        call_kwargs["seed"] = seed
    return builder(**call_kwargs)

"""The cached-CDF categorical sampler and the generators that draw through it.

:class:`CategoricalSampler` must return exactly what ``Generator.choice``
returns and consume the same draws, and every ``DATASET_BUILDERS`` entry
must equal its ``Generator.choice`` oracle (``tests/datasets/choice_oracle.py``).
Datasets are compared by ``repr`` of their keys, labels, values and times,
so a float's last bit or an ``np.int64`` where an ``int`` was would show.
"""

import numpy as np
import pytest

from repro.datasets import movielens, traffic
from repro.datasets.base import CategoricalSampler
from repro.datasets.registry import DATASET_BUILDERS
from tests.datasets import choice_oracle
from tests.datasets.choice_oracle import choice_generators

#: Draws per distribution; the 16-code traffic-shaped one takes the most.
DRAWS = {"size codes": 10_000, "with zeros": 2_000, "one code": 500, "movie codes": 4_000}


def _distribution(name: str) -> np.ndarray:
    rng = np.random.default_rng(17)
    if name == "size codes":
        weights = np.exp(-((np.arange(16) - 5) ** 2) / 4.5) + 0.02
        weights *= rng.uniform(0.5, 1.5, size=16)
        return weights / weights.sum()
    if name == "with zeros":
        return np.array([0.0, 0.25, 0.0, 0.0, 0.75, 0.0])
    if name == "one code":
        return np.array([1.0])
    return rng.dirichlet(np.ones(25) * 0.6)


def dataset_record(dataset) -> list:
    header = (
        dataset.name,
        dataset.spec,
        dataset.num_classes,
        dataset.class_names,
        dataset.true_stop_positions,
    )
    return [repr(header)] + [
        repr((sequence.key, sequence.label, [(i.key, i.value, i.time) for i in sequence.items]))
        for sequence in dataset.sequences
    ]


class FixedDraw:
    """A stand-in generator whose ``random()`` returns one chosen double."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestCategoricalSampler:
    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_draws_equal_choice_and_streams_stay_aligned(self, name):
        p = _distribution(name)
        sampler = CategoricalSampler(p)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        drawn = [sampler(ours) for _ in range(DRAWS[name])]
        expected = [int(theirs.choice(len(p), p=p)) for _ in range(DRAWS[name])]
        assert drawn == expected
        assert {type(code) for code in drawn} == {int}
        assert ours.random(8).tolist() == theirs.random(8).tolist()

    def test_draws_on_cdf_boundaries_match_searchsorted_right(self):
        # A random() equal to a CDF value is too rare for the stream tests
        # to hit; there ``choice``'s side="right" search skips every
        # zero-probability code, where a left search would return one.
        p = _distribution("with zeros")
        sampler = CategoricalSampler(p)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        # random() lies in [0, 1).
        for u in [0.0, *(bound for bound in cdf if bound < 1.0), np.nextafter(1.0, 0.0)]:
            code = sampler(FixedDraw(float(u)))
            assert code == int(cdf.searchsorted(u, side="right"))
            assert p[code] > 0

    def test_draws_interleave_with_other_draws(self):
        p = _distribution("size codes")
        sampler = CategoricalSampler(p)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(500):
            assert sampler(ours) == int(theirs.choice(len(p), p=p))
            assert ours.exponential(1.0) == theirs.exponential(1.0)
            assert ours.poisson(3.0) == theirs.poisson(3.0)

    def test_accepts_what_choice_accepts_within_its_tolerance(self):
        p = _distribution("size codes") * (1.0 + 1e-9)
        sampler = CategoricalSampler(list(p))
        ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
        assert [sampler(ours) for _ in range(200)] == [
            int(theirs.choice(len(p), p=p)) for _ in range(200)
        ]

    @pytest.mark.parametrize(
        "size, p",
        [
            (3, [0.5, np.nan, 0.5]),
            (2, [1.2, -0.2]),
            (2, [0.5, 0.4]),
            (2, [[0.5, 0.5]]),
            (0, []),
        ],
        ids=["nan", "negative", "sum below 1", "two-dimensional", "empty"],
    )
    def test_rejects_what_choice_rejects(self, size, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(size, p=p)
        with pytest.raises(ValueError):
            CategoricalSampler(p)


class TestBuildersEqualTheirChoiceOracle:
    def test_oracle_swaps_in_and_out(self):
        generators = traffic.generate_traffic_dataset, movielens.generate_movielens_dataset
        with choice_generators():
            assert traffic.generate_traffic_dataset is choice_oracle.generate_traffic_dataset
            assert movielens.generate_movielens_dataset is choice_oracle.generate_movielens_dataset
        assert (traffic.generate_traffic_dataset, movielens.generate_movielens_dataset) == generators

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("num_keys", [12, 40])
    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_builder_equals_choice_oracle(self, name, num_keys, seed):
        built = DATASET_BUILDERS[name](num_keys=num_keys, seed=seed)
        with choice_generators():
            expected = DATASET_BUILDERS[name](num_keys=num_keys, seed=seed)
        assert len(built) == num_keys
        assert dataset_record(built) == dataset_record(expected)

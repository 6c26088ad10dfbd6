"""Perf smoke: dataset generation and tangling must beat the paths they replaced.

Deselected by default (see ``pytest.ini``); run with ``pytest -m perf_smoke``.
Generating USTC-TFC2016 at 320 flows and re-tangling it at concurrency 2
(the ``train_batched`` benchmark's set-up data, at a fifth of its flows)
draws each size code through a :class:`~repro.datasets.base.CategoricalSampler`
and builds each tangled item in one pass.  Over 30 interleaved pairs, the
median of that work must cost at most 0.7x the median of the same work
through the oracles: the ``Generator.choice`` generator
(``tests/datasets/choice_oracle.py``) and the two-pass tangling
(``tests/data/tangle_oracle.py``).  Both legs produce identical tangles.
"""

import time

import numpy as np
import pytest

from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from tests.data.tangle_oracle import two_pass_retangle
from tests.data.test_tangle import tangle_record
from tests.datasets.choice_oracle import choice_generators

pytestmark = pytest.mark.perf_smoke

GATE_SEED = 0
FLOWS = 320
CONCURRENCY = 2
PAIRS = 30
#: The sampler and one-pass leg measured 0.35-0.36x the oracles (four runs
#: of 30 pairs, about 50 against 140 ms) on a 2-core x86-64 host.
SETUP_RATIO_GATE = 0.7


def cached_cdf_one_pass():
    dataset = make_ustc_tfc2016(num_flows=FLOWS, seed=GATE_SEED)
    return retangle_by_concurrency(
        dataset.sequences, dataset.spec, CONCURRENCY, rng=np.random.default_rng(GATE_SEED)
    )


def choice_two_pass():
    with choice_generators():
        dataset = make_ustc_tfc2016(num_flows=FLOWS, seed=GATE_SEED)
    return two_pass_retangle(
        dataset.sequences, dataset.spec, CONCURRENCY, rng=np.random.default_rng(GATE_SEED)
    )


def _seconds(build) -> float:
    start = time.perf_counter()
    build()
    return time.perf_counter() - start


def test_generation_and_tangling_at_most_0_7x_oracles():
    ours, oracle = cached_cdf_one_pass(), choice_two_pass()
    assert [tangle_record(t) for t in ours] == [tangle_record(t) for t in oracle]
    legs = {cached_cdf_one_pass: [], choice_two_pass: []}
    order = list(legs)
    for pair in range(PAIRS):
        for build in order if pair % 2 == 0 else order[::-1]:
            legs[build].append(_seconds(build))
    new = float(np.median(legs[cached_cdf_one_pass]))
    old = float(np.median(legs[choice_two_pass]))
    assert new <= SETUP_RATIO_GATE * old, {
        "flows": FLOWS,
        "new_ms": new * 1e3,
        "oracle_ms": old * 1e3,
        "ratio": new / old,
    }

"""Perf smoke: the whole-tangle embedding gathers must beat the per-item loop.

Deselected by default (see ``pytest.ini``); run with ``pytest -m perf_smoke``.
``InputEmbedding.forward_inference`` sums one table gather per signal over
the coordinates of the tangle's column table where the inference path used
to call ``embed_item_inference`` once per item.  On a ~64-item
absolute-encoding tangle of the synthetic USTC-TFC2016 flows (the
``train_batched`` benchmark's data and model sizes), the median gather leg
(building the column table and its coordinates, then the gathers) over 30
interleaved pairs must cost at most 0.4x the median per-item loop, which
``tests/core/test_embeddings.py`` keeps as the gathers' oracle.
"""

import time

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from tests.core.test_embeddings import gather_embed, item_loop_embed

pytestmark = pytest.mark.perf_smoke

GATE_SEED = 0
TANGLE_ITEMS = 64
PAIRS = 30
#: The gather leg measured 0.22-0.23x the per-item loop on a 2-core x86-64
#: host.
GATHER_RATIO_GATE = 0.4


def _seconds(embed) -> float:
    start = time.perf_counter()
    embed()
    return time.perf_counter() - start


def test_embedding_gather_at_most_0_4x_item_loop():
    dataset = make_ustc_tfc2016(num_flows=36, seed=GATE_SEED)
    tangles = retangle_by_concurrency(
        dataset.sequences, dataset.spec, 2, rng=np.random.default_rng(GATE_SEED)
    )
    tangle = min(tangles, key=lambda t: abs(len(t) - TANGLE_ITEMS))
    model = KVEC(
        dataset.spec, dataset.num_classes, KVECConfig(encoding="absolute", seed=GATE_SEED)
    )
    embedding = model.input_embedding

    def gather():
        return gather_embed(embedding, tangle)

    def item_loop():
        return item_loop_embed(embedding, tangle)

    assert np.array_equal(gather(), item_loop())
    legs = {gather: [], item_loop: []}
    order = list(legs)
    for pair in range(PAIRS):
        for embed in order if pair % 2 == 0 else order[::-1]:
            legs[embed].append(_seconds(embed))
    gathered = float(np.median(legs[gather]))
    looped = float(np.median(legs[item_loop]))
    assert gathered <= GATHER_RATIO_GATE * looped, {
        "items": len(tangle),
        "gather_us": gathered * 1e6,
        "item_loop_us": looped * 1e6,
        "ratio": gathered / looped,
    }

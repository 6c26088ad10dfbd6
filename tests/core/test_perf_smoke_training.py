"""Perf smoke: batched training must beat one call per tangle 2x at B=16,
and the fused attention node must beat the composite chain it replaced.

Deselected by default (see ``pytest.ini``); run with ``pytest -m perf_smoke``.
In the training gate, one lockstep ``batched_episode_losses`` call per
minibatch (padded cross-sample GEMMs through the encoder) must process
episodes at >= 2x the rate of the same runner fed one tangle per call
(the per-tangle reference) at B=16, for both position encodings.  Both
legs execute identical episodes (identical per-episode action RNGs), so
the ratio is pure execution strategy; the bench re-measures a
below-margin encoding up to three times keeping the best attempt (the gate
asserts a capability, and best-of-attempts filters process-level timing
noise on small runners).
"""

import time

import numpy as np
import pytest

from repro.nn.attention import scaled_dot_product_attention
from repro.nn.tensor import Tensor
from tests.nn.test_fused_nodes import composite_attention, random_mask

pytestmark = pytest.mark.perf_smoke

#: Explicit RNG root for the gate; the bench derives the dataset, tangling,
#: model inits and every episode's action stream from it, so reruns measure
#: identical work.
GATE_SEED = 0


#: The batched trainer's attention shape at B=16: (B, heads, T, d_head).
ATTENTION_SHAPE = (16, 2, 80, 16)
ATTENTION_PAIRS = 30
#: The fused node measured 0.51-0.60x the composite chain on a 2-core
#: x86-64 host; the composite chain itself reads about 1.0x.
ATTENTION_RATIO_GATE = 0.7


def _attention_step_seconds(attend, arrays, mask, upstream) -> float:
    query, key, value = [Tensor(array, requires_grad=True) for array in arrays]
    start = time.perf_counter()
    out, _ = attend(query, key, value, mask=mask)
    out.backward(upstream)
    return time.perf_counter() - start


def test_fused_attention_at_most_0_7x_composite():
    """Forward plus backward of the one-node attention at the batched
    trainer's shape costs at most 0.7x the composite chain it replaced.

    Both sides run the same inputs in 30 interleaved pairs (alternating
    which goes first), so the median ratio is insensitive to host load.
    It is defined before the training gate so it runs first: that gate's
    allocations leave a heap on which the composite's full-size
    temporaries stop page-faulting, and measured after it the ratio reads
    0.44-0.71 from process to process instead of 0.51-0.60.
    """
    rng = np.random.default_rng(GATE_SEED)
    arrays = [rng.standard_normal(ATTENTION_SHAPE) for _ in range(3)]
    batch, _, length, _ = ATTENTION_SHAPE
    mask = random_mask(rng, (batch, 1, length, length))
    upstream = rng.standard_normal(ATTENTION_SHAPE)
    legs = {scaled_dot_product_attention: [], composite_attention: []}
    order = list(legs)
    for attend in order:  # warm-up
        _attention_step_seconds(attend, arrays, mask, upstream)
    for pair in range(ATTENTION_PAIRS):
        for attend in order if pair % 2 == 0 else order[::-1]:
            legs[attend].append(_attention_step_seconds(attend, arrays, mask, upstream))
    fused = float(np.median(legs[scaled_dot_product_attention]))
    composite = float(np.median(legs[composite_attention]))
    assert fused <= ATTENTION_RATIO_GATE * composite, {
        "fused_ms": fused * 1e3,
        "composite_ms": composite * 1e3,
        "ratio": fused / composite,
    }


@pytest.fixture(scope="module")
def training_gate_result():
    bench = pytest.importorskip(
        "benchmarks.bench_ext_training_throughput",
        reason="benchmarks/ must be importable (run pytest from the repo root)",
    )
    return bench.run_training_gate("unit", seed=GATE_SEED)


def test_batched_training_at_least_2x_per_tangle_absolute(training_gate_result):
    leg = training_gate_result["absolute"]
    assert leg["speedup"] >= 2.0, {k: leg[k] for k in ("speedup", "attempts")}


def test_batched_training_at_least_2x_per_tangle_rotary(training_gate_result):
    leg = training_gate_result["rotary"]
    assert leg["speedup"] >= 2.0, {k: leg[k] for k in ("speedup", "attempts")}

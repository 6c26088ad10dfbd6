"""Perf smoke: batched training must beat one call per tangle 2x at B=16,
the fused attention and LSTM-step nodes must beat the composite chains they
replaced, and the runner's causal-chunk input build and encode must cost at
most 1.25x one full-length build and encode when every chunk runs.

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

from repro.core import batched_episodes
from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.nn.attention import scaled_dot_product_attention
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor
from tests.core.test_chunked_encode import _runner_stops
from tests.nn.test_fused_nodes import composite_attention, composite_lstm_step, random_mask

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


#: The fusion gate's step in the runner: B=16 rows of input 32 into a
#: state of 48 (``KVECConfig``'s ``d_model`` and ``d_state``).
LSTM_SHAPE = (16, 32, 48)
LSTM_PAIRS = 30
#: The one-node step measured 0.49-0.53x the composite chain at B = 1, 8
#: and 16 on a 2-core x86-64 host (two runs of 30 interleaved pairs).
LSTM_RATIO_GATE = 0.8


def _lstm_step_seconds(step, cell, arrays, upstream) -> float:
    x, state = [Tensor(array, requires_grad=True) for array in arrays]
    start = time.perf_counter()
    step(cell, x, state).backward(upstream)
    return time.perf_counter() - start


def _fused_lstm_step(cell, x, state):
    return cell(x, state)


def _composite_lstm_step(cell, x, state):
    hidden, memory = composite_lstm_step(
        cell, x, state[:, : cell.hidden_size], state[:, cell.hidden_size :]
    )
    return Tensor.concatenate([hidden, memory], axis=-1)


def test_fused_lstm_at_most_0_8x_composite():
    """Forward plus backward of the one-node LSTM cell step at the
    runner's shape costs at most 0.8x the composite chain it replaced
    (concatenate, four ``Linear`` gates, three sigmoids, a tanh and the
    cell arithmetic), gradients into the input, the ``[h | c]`` state and
    all eight gate parameters included.

    Both sides run the same inputs in 30 interleaved pairs (alternating
    which goes first), so the median ratio is insensitive to host load.
    """
    batch, input_size, hidden_size = LSTM_SHAPE
    rng = np.random.default_rng(GATE_SEED)
    cell = LSTMCell(input_size, hidden_size, rng=rng)
    arrays = [
        rng.standard_normal((batch, input_size)),
        rng.standard_normal((batch, 2 * hidden_size)),
    ]
    upstream = rng.standard_normal((batch, 2 * hidden_size))
    legs = {_fused_lstm_step: [], _composite_lstm_step: []}
    order = list(legs)
    for step in order:  # warm-up
        _lstm_step_seconds(step, cell, arrays, upstream)
    for pair in range(LSTM_PAIRS):
        for step in order if pair % 2 == 0 else order[::-1]:
            cell.zero_grad()
            legs[step].append(_lstm_step_seconds(step, cell, arrays, upstream))
    fused = float(np.median(legs[_fused_lstm_step]))
    composite = float(np.median(legs[_composite_lstm_step]))
    assert fused <= LSTM_RATIO_GATE * composite, {
        "fused_us": fused * 1e6,
        "composite_us": composite * 1e6,
        "ratio": fused / composite,
    }


#: Pairs of the chunked-encode gate.  A full-length encode in the runner's
#: chunks (16, 32, 64, then the rest up to t_max = 76) read 1.05-1.07x the
#: one-shot leg on a 2-core x86-64 host, each leg building its inputs too
#: (0.97-1.06x when only embed and encode were timed); re-encoding the
#: whole prefix at every growth step, with no key/value cache, read
#: 2.15-2.32x.
CHUNKED_PAIRS = 30
CHUNKED_RATIO_GATE = 1.25


def _encode_step_seconds(model, tangles, lengths, upstream, stops) -> float:
    """Build inputs, embed and encode, forward and backward, over chunks
    ending at ``stops``."""
    model.zero_grad()
    start = time.perf_counter()
    padded = batched_episodes._PaddedMinibatch(model, tangles, lengths)
    cache: dict = {}
    loss, begin = None, 0
    for stop in stops:
        chunk = padded.encode(begin, stop, cache)
        term = (chunk * Tensor(upstream[:, begin:stop])).sum()
        loss = term if loss is None else loss + term
        begin = stop
    loss.backward()
    return time.perf_counter() - start


def test_chunked_encode_at_most_1_25x_one_shot():
    """Encoding every row in the runner's causal chunks costs at most 1.25x
    one full-length encode at the ``train_batched`` shape: B=16 tangles of
    concurrency-2 USTC-TFC2016 flows (t_max 76) with their real
    correlation masks, the default absolute-encoding model.  Each leg
    builds its inputs (column tables, masks, coordinates), embeds and
    encodes, forward plus backward.  This is the never-halting worst case
    of on-demand chunking: the key/value cache must keep the chunks from
    re-encoding the prefix, and the column tables from rescanning it.
    Both legs run in 30 interleaved pairs (alternating which goes first).
    """
    dataset = make_ustc_tfc2016(num_flows=200, seed=GATE_SEED)
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(GATE_SEED))
    tangles = retangle_by_concurrency(
        split.train, dataset.spec, 2, rng=np.random.default_rng(GATE_SEED)
    )[:16]
    model = KVEC(
        dataset.spec,
        dataset.num_classes,
        KVECConfig(dropout=0.0, batch_size=16, encoding="absolute", seed=GATE_SEED),
    )
    lengths = [len(tangle) for tangle in tangles]
    t_max = max(lengths)
    upstream = np.random.default_rng(GATE_SEED).standard_normal(
        (len(tangles), t_max, model.config.d_model)
    )
    stops = {"one_shot": [t_max], "chunked": _runner_stops(t_max)}
    assert len(stops["chunked"]) > 2, t_max
    times = {name: [] for name in stops}
    order = list(stops)
    for name in order:  # warm-up
        _encode_step_seconds(model, tangles, lengths, upstream, stops[name])
    for pair in range(CHUNKED_PAIRS):
        for name in order if pair % 2 == 0 else order[::-1]:
            times[name].append(
                _encode_step_seconds(model, tangles, lengths, upstream, stops[name])
            )
    one_shot, chunked = (float(np.median(times[name])) for name in order)
    assert chunked <= CHUNKED_RATIO_GATE * one_shot, {
        "stops": stops["chunked"],
        "one_shot_ms": one_shot * 1e3,
        "chunked_ms": chunked * 1e3,
        "ratio": chunked / one_shot,
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

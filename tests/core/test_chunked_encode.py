"""The lockstep runner encodes each minibatch in causal chunks, on demand.

``KVRLEncoder.forward_batch`` with a key/value cache encodes rows
``[a, b)`` against the cached rows ``[0, a)``; the runner
(:mod:`repro.core.batched_episodes`) encodes only the chunks its round loop
reaches.  Pinned here: chunked encodes equal the one-shot encode (outputs
and every gradient), the runner encodes each row at most once and stops at
the first chunk when every key halts at once, and dropout stays
deterministic per seed.
"""

import numpy as np
import pytest

from repro.core import batched_episodes
from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.nn.tensor import Tensor

CHUNK_ATOL = 1e-12


def small_config(encoding: str = "absolute", **overrides) -> KVECConfig:
    defaults = dict(
        d_model=16,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=24,
        d_state=20,
        dropout=0.0,
        batch_size=4,
        learning_rate=3e-3,
        seed=0,
        encoding=encoding,
    )
    defaults.update(overrides)
    return KVECConfig(**defaults)


@pytest.fixture(scope="module")
def workload():
    dataset = make_ustc_tfc2016(num_flows=36, seed=3)
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(0))
    tangles = retangle_by_concurrency(
        split.train, dataset.spec, 3, rng=np.random.default_rng(1)
    )
    return dataset, tangles


def _encode_with_grads(model, padded, x_data, upstream, stops):
    """Encode ``x_data`` in chunks ending at ``stops``; outputs and gradients."""
    model.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    cache: dict = {}
    chunks, start = [], 0
    for stop in stops:
        rows = slice(start, stop)
        seen = (slice(None), rows, slice(0, stop))
        chunks.append(
            model.encoder.forward_batch(
                x[:, rows],
                mask=padded.mask[seen],
                phases=None
                if padded.phases is None
                else (padded.phases[0][rows], padded.phases[1][rows]),
                delta=None if padded.delta is None else padded.delta[seen],
                same=None if padded.same is None else padded.same[seen],
                cache=cache,
            )
        )
        start = stop
    out = Tensor.concatenate(chunks, axis=1)
    (out * Tensor(upstream)).sum().backward()
    grads = [param.grad.copy() for param in model.encoder.parameters()]
    return out.data, x.grad, grads


def _runner_stops(t_max):
    stops = [batched_episodes._chunk_stop(0, t_max)]
    while stops[-1] < t_max:
        stops.append(batched_episodes._chunk_stop(stops[-1], t_max))
    return stops


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
@pytest.mark.parametrize("schedule", ["runner", "single_rows_first", "uneven"])
def test_chunked_encode_equals_one_shot(workload, encoding, schedule):
    """Outputs, input gradient and every encoder parameter gradient of a
    chunked encode equal one full-length call, padding rows included."""
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config(encoding))
    batch = tangles[:3]
    lengths = [len(tangle) for tangle in batch]
    assert len(set(lengths)) == 3  # ragged: padding rows are encoded too
    t_max = max(lengths)
    padded = batched_episodes._pad_minibatch(model, batch, lengths)
    if encoding == "rotary":
        assert padded.delta is not None  # relative bias is exercised
    rng = np.random.default_rng(7)
    x_data = rng.standard_normal((len(batch), t_max, model.config.d_model))
    upstream = rng.standard_normal(x_data.shape)
    stops = {
        "runner": _runner_stops(t_max),
        "single_rows_first": [1, 2, 3, 4, 20, t_max],
        "uneven": [7, 8, 45, t_max - 1, t_max],
    }[schedule]
    assert len(stops) > 1

    expected = _encode_with_grads(model, padded, x_data, upstream, [t_max])
    actual = _encode_with_grads(model, padded, x_data, upstream, stops)
    np.testing.assert_allclose(actual[0], expected[0], rtol=0, atol=CHUNK_ATOL)
    np.testing.assert_allclose(actual[1], expected[1], rtol=0, atol=CHUNK_ATOL)
    assert len(actual[2]) == len(expected[2])
    for got, want in zip(actual[2], expected[2]):
        np.testing.assert_allclose(got, want, rtol=0, atol=CHUNK_ATOL)


def _spy_chunks(monkeypatch, model):
    """Record the ``(start, stop)`` rows of every encoder call."""
    calls = []
    forward = model.encoder.forward_batch

    def spy(embeddings, mask=None, **kwargs):
        stop = mask.shape[-1]
        calls.append((stop - embeddings.shape[1], stop))
        return forward(embeddings, mask=mask, **kwargs)

    monkeypatch.setattr(model.encoder, "forward_batch", spy)
    return calls


def _force_halting(model, bias: float) -> None:
    """A halting head that ignores the state: sigmoid(bias) everywhere."""
    model.policy.projection.weight.data[...] = 0.0
    model.policy.projection.bias.data[...] = bias


@pytest.mark.parametrize("max_items", [None, 10])
def test_halting_at_first_observation_encodes_one_chunk(workload, monkeypatch, max_items):
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config())
    _force_halting(model, 30.0)
    calls = _spy_chunks(monkeypatch, model)
    batch = tangles[:4]
    t_max = max(tangle.prefix_length(max_items) for tangle in batch)
    rngs = [np.random.default_rng(seed) for seed in range(len(batch))]
    results, _ = model.run_episodes(batch, rngs=rngs, max_items=max_items)
    assert all(
        episode.num_observations == 1 for result in results for episode in result.episodes.values()
    )
    assert calls == [(0, min(16, t_max))]


def test_never_halting_encodes_each_row_once(workload, monkeypatch):
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config())
    _force_halting(model, -30.0)
    calls = _spy_chunks(monkeypatch, model)
    batch = tangles[:4]
    t_max = max(len(tangle) for tangle in batch)
    rngs = [np.random.default_rng(seed) for seed in range(len(batch))]
    results, _ = model.run_episodes(batch, rngs=rngs)
    assert not any(
        episode.halted_by_policy for result in results for episode in result.episodes.values()
    )
    # Chunks partition [0, t_max): contiguous, no row encoded twice, and
    # the encoded length doubles from 16.
    assert 64 < t_max <= 128
    assert calls == [(0, 16), (16, 32), (32, 64), (64, t_max)]


def test_training_with_dropout_is_deterministic_per_seed(workload, monkeypatch):
    """Dropout masks are drawn per chunk; a seed still fixes every draw."""
    dataset, tangles = workload
    histories, chunk_calls = [], []
    for _ in range(2):
        model = KVEC(dataset.spec, dataset.num_classes, small_config(dropout=0.2))
        _force_halting(model, -30.0)  # every chunk runs, each with its own masks
        chunk_calls.append(_spy_chunks(monkeypatch, model))
        histories.append(KVECTrainer(model).train(tangles[:4], epochs=2))
    assert len(chunk_calls[0]) > 2
    assert chunk_calls[0] == chunk_calls[1]
    assert histories[0].series("loss") == histories[1].series("loss")
    assert histories[0].series("accuracy") == histories[1].series("accuracy")

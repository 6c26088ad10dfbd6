"""The lockstep runner encodes each minibatch in causal chunks, on demand.

``KVRLEncoder.forward_batch`` with a key/value cache encodes rows
``[a, b)`` against the cached rows ``[0, a)``; the runner
(:mod:`repro.core.batched_episodes`) builds the inputs of, and encodes,
only the chunks its round loop reaches.  Pinned here: each chunk's inputs
equal the full-length build they replaced (``tests/core/input_oracle.py``)
sliced to the chunk, chunked encodes equal the one-shot encode (outputs and
every gradient), the runner builds and encodes each row at most once and
stops at the first chunk when every key halts at once, and dropout stays
deterministic per seed.
"""

import numpy as np
import pytest

from repro.core import batched_episodes
from repro.core.config import KVECConfig
from repro.core.correlation import build_correlation_structure
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.nn.tensor import Tensor
from tests.core.input_oracle import pad_minibatch, reference_correlation_structure

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


def _encode_with_grads(model, batch, lengths, x_data, upstream, stops):
    """Encode ``x_data`` in chunks ending at ``stops``; outputs and gradients.

    Each chunk's mask and rotary inputs come from the runner's own per-chunk
    builder, built afresh for this encode.
    """
    model.zero_grad()
    padded = batched_episodes._PaddedMinibatch(model, batch, lengths)
    x = Tensor(x_data, requires_grad=True)
    cache: dict = {}
    chunks, start = [], 0
    for stop in stops:
        inputs = padded.inputs(start, stop)
        chunks.append(
            model.encoder.forward_batch(
                x[:, start:stop],
                mask=inputs.mask,
                phases=inputs.phases,
                delta=inputs.delta,
                same=inputs.same,
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


def _schedule(name, t_max):
    """Chunk stops of a named schedule, increasing and ending at ``t_max``."""
    stops = {
        "runner": _runner_stops(t_max),
        "single_rows_first": [1, 2, 3, 4, 20, t_max],
        "uneven": [7, 8, 45, t_max - 1, t_max],
    }[name]
    return sorted({stop for stop in stops if 0 < stop < t_max} | {t_max})


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
    if encoding == "rotary":  # the relative bias is exercised
        padded = batched_episodes._PaddedMinibatch(model, batch, lengths)
        assert padded.inputs(0, 1).delta is not None
    rng = np.random.default_rng(7)
    x_data = rng.standard_normal((len(batch), t_max, model.config.d_model))
    upstream = rng.standard_normal(x_data.shape)
    stops = _schedule(schedule, t_max)
    assert len(stops) > 1

    expected = _encode_with_grads(model, batch, lengths, x_data, upstream, [t_max])
    actual = _encode_with_grads(model, batch, lengths, x_data, upstream, stops)
    np.testing.assert_allclose(actual[0], expected[0], rtol=0, atol=CHUNK_ATOL)
    np.testing.assert_allclose(actual[1], expected[1], rtol=0, atol=CHUNK_ATOL)
    assert len(actual[2]) == len(expected[2])
    for got, want in zip(actual[2], expected[2]):
        np.testing.assert_allclose(got, want, rtol=0, atol=CHUNK_ATOL)


def _assert_chunk_inputs_equal_full_build(model, batch, lengths, stops):
    """Each chunk's inputs equal the full-length build sliced to the chunk."""
    full = pad_minibatch(model, batch, lengths)
    padded = batched_episodes._PaddedMinibatch(model, batch, lengths)
    start = 0
    for stop in stops:
        inputs = padded.inputs(start, stop)
        assert padded.table.filled == stop
        seen = (slice(None), slice(start, stop), slice(0, stop))
        assert len(inputs.coordinates) == len(full.coordinates)
        for got, want in zip(inputs.coordinates, full.coordinates):
            assert np.array_equal(got, want[..., start:stop])
        assert np.array_equal(inputs.mask, full.mask[seen])
        for name in ("delta", "same"):
            got, want = getattr(inputs, name), getattr(full, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert np.array_equal(got, want[seen]), name
        assert (inputs.phases is None) == (full.phases is None)
        if full.phases is not None:
            for got, want in zip(inputs.phases, full.phases):
                assert np.array_equal(got, want[start:stop])
        start = stop


CORRELATIONS = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("use_key, use_value", CORRELATIONS)
@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
@pytest.mark.parametrize("schedule", ["runner", "single_rows_first", "uneven"])
def test_chunk_inputs_equal_the_full_length_build(
    workload, schedule, encoding, use_key, use_value
):
    """Coordinates, mask, phases and delta/same of every chunk, over ragged
    lengths, equal the full-length build sliced at ``[:, start:stop, :stop]``."""
    dataset, tangles = workload
    config = small_config(encoding, use_key_correlation=use_key, use_value_correlation=use_value)
    model = KVEC(dataset.spec, dataset.num_classes, config)
    batch = tangles[:3]
    lengths = [len(tangle) for tangle in batch]
    assert len(set(lengths)) == 3
    _assert_chunk_inputs_equal_full_build(model, batch, lengths, _schedule(schedule, max(lengths)))


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
@pytest.mark.parametrize(
    "overrides, max_items",
    [({"use_time_embeddings": False}, None), ({}, 10), ({}, 30), ({"max_keys": 2}, None)],
)
def test_chunk_inputs_equal_the_full_length_build_variants(
    workload, encoding, overrides, max_items
):
    """Without time embeddings, under ``max_items`` truncation and with
    clipped membership indices, every schedule's chunks still equal the
    full-length build."""
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config(encoding, **overrides))
    batch = tangles[:4]
    lengths = [tangle.prefix_length(max_items) for tangle in batch]
    for schedule in ("runner", "single_rows_first", "uneven"):
        _assert_chunk_inputs_equal_full_build(
            model, batch, lengths, _schedule(schedule, max(lengths))
        )


@pytest.mark.parametrize("use_key, use_value", CORRELATIONS)
def test_correlation_structure_equals_the_full_length_build(workload, use_key, use_value):
    """The one-tangle, full-range call of the chunk code gives the mask and
    both correlation matrices of the full-length build, bit for bit."""
    _, tangles = workload
    flags = dict(use_key_correlation=use_key, use_value_correlation=use_value)
    for tangle in tangles[:6]:
        for upto in (None, 0, 1, 9, 40):
            got = build_correlation_structure(tangle, upto=upto, **flags)
            want = reference_correlation_structure(tangle, upto=upto, **flags)
            for name in ("mask", "key_correlated", "value_correlated"):
                assert getattr(got, name).dtype == getattr(want, name).dtype, name
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


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


def _spy_inputs(monkeypatch):
    """Record the rows of every input build and the rows tabled after it."""
    builds = []
    inputs = batched_episodes._PaddedMinibatch.inputs

    def spy(self, start, stop):
        built = inputs(self, start, stop)
        builds.append(((start, stop), self.table.filled))
        return built

    monkeypatch.setattr(batched_episodes._PaddedMinibatch, "inputs", spy)
    return builds


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
    builds = _spy_inputs(monkeypatch)
    batch = tangles[:4]
    t_max = max(tangle.prefix_length(max_items) for tangle in batch)
    rngs = [np.random.default_rng(seed) for seed in range(len(batch))]
    results, _ = model.run_episodes(batch, rngs=rngs, max_items=max_items)
    assert all(
        episode.num_observations == 1 for result in results for episode in result.episodes.values()
    )
    assert calls == [(0, min(16, t_max))]
    # Inputs are built, and rows tabled, for the encoded rows only.
    assert builds == [((0, min(16, t_max)), min(16, t_max))]


def test_never_halting_encodes_each_row_once(workload, monkeypatch):
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config())
    _force_halting(model, -30.0)
    calls = _spy_chunks(monkeypatch, model)
    builds = _spy_inputs(monkeypatch)
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
    # Each chunk's inputs are built once, with rows tabled up to its stop.
    assert builds == [(rows, rows[1]) for rows in calls]


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

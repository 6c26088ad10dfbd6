"""Parity suite for training on the lockstep episode runner.

The contract under test: ``KVECTrainer.batched_episode_losses`` over a
minibatch is a numerical twin of the per-tangle, per-arrival reference in
``tests/core/episode_oracle.py`` — identical sampled actions and
predictions (bit-for-bit, via identical per-episode RNGs), identical losses
and per-parameter gradients within 1e-8 (observed agreement is ~1e-13; the
bound leaves room for BLAS summation order), and bit-identical
end-of-training accuracy at a fixed seed.  The suite sweeps B in {1, 3, 8}
x both position encodings over ragged-length tangles, the parameter-free
fusion ablations, plus a forced multi-bucket batch (mixed concurrencies) so
the length-bucketed grouping path is pinned too.
"""

import functools
import time

import numpy as np
import pytest

from repro.core import batched_episodes
from repro.core.config import KVECConfig
from repro.core.ectl import HaltingPolicy
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.nn.tensor import Tensor
from tests.core import episode_oracle

PARITY_ATOL = 1e-8


def small_config(encoding: str, **overrides) -> KVECConfig:
    defaults = dict(
        d_model=16,
        num_blocks=1,
        num_heads=1,
        ffn_hidden=24,
        d_state=20,
        dropout=0.0,  # exact parity requires identical (absent) dropout masks
        epochs=2,
        batch_size=4,
        learning_rate=3e-3,
        seed=0,
        encoding=encoding,
    )
    defaults.update(overrides)
    return KVECConfig(**defaults)


@pytest.fixture(scope="module")
def workload():
    # 60 flows so the key-disjoint train split re-tangles into > 8 tangles at
    # concurrency 3 (the largest parametrised minibatch below).
    dataset = make_ustc_tfc2016(num_flows=60, seed=3)
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(0))
    tangles = retangle_by_concurrency(
        split.train, dataset.spec, 3, rng=np.random.default_rng(1)
    )
    return dataset, tangles


def _losses_and_grads(dataset, config, batch, reference, seed_base=100):
    """Minibatch losses, gradients and episode results from one fresh model.

    ``reference`` selects the per-tangle oracle instead of the trainer's
    lockstep runner; both see identically seeded per-tangle RNGs.
    """
    model = KVEC(dataset.spec, dataset.num_classes, config)
    trainer = KVECTrainer(model)
    losses = (
        functools.partial(episode_oracle.episode_losses, trainer)
        if reference
        else trainer.batched_episode_losses
    )
    model.zero_grad()
    rngs = [np.random.default_rng(seed_base + offset) for offset in range(len(batch))]
    total, baseline_loss, results, _ = losses(batch, rngs)
    total.backward()
    baseline_loss.backward()
    grads = [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    return float(total.data), float(baseline_loss.data), grads, results


def _assert_loss_parity(dataset, config, batch):
    ref_total, ref_baseline, ref_grads, ref_results = _losses_and_grads(
        dataset, config, batch, reference=True
    )
    total, baseline, grads, results = _losses_and_grads(
        dataset, config, batch, reference=False
    )
    assert total == pytest.approx(ref_total, abs=PARITY_ATOL)
    assert baseline == pytest.approx(ref_baseline, abs=PARITY_ATOL)
    assert len(grads) == len(ref_grads)
    for expected, actual in zip(ref_grads, grads):
        if expected is None:
            assert actual is None
        else:
            np.testing.assert_allclose(actual, expected, atol=PARITY_ATOL)
    _assert_episode_parity(ref_results, results)


def _assert_episode_parity(reference_results, batched_results):
    assert len(reference_results) == len(batched_results)
    for reference, batched in zip(reference_results, batched_results):
        assert set(reference.episodes) == set(batched.episodes)
        for key, expected in reference.episodes.items():
            actual = batched.episodes[key]
            assert actual.actions == expected.actions, key
            assert actual.predicted == expected.predicted, key
            assert actual.halted_by_policy == expected.halted_by_policy, key
            assert actual.num_observations == expected.num_observations, key


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
@pytest.mark.parametrize("batch_size", [1, 3, 8])
class TestBatchedLossParity:
    def test_losses_gradients_actions_match_per_sample(
        self, workload, encoding, batch_size
    ):
        dataset, tangles = workload
        batch = tangles[:batch_size]
        assert len(batch) == batch_size
        if batch_size > 1:
            # The contract explicitly covers ragged minibatches.
            assert len({len(t) for t in batch}) > 1
        _assert_loss_parity(dataset, small_config(encoding), batch)


@pytest.mark.parametrize("fusion", ["mean", "last"])
@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
@pytest.mark.parametrize("batch_size", [1, 8])
def test_fusion_ablations_match_per_sample(workload, fusion, encoding, batch_size):
    """The parameter-free fusions train through their own ``step`` and
    ``representation``; pin them against the reference too."""
    dataset, tangles = workload
    _assert_loss_parity(dataset, small_config(encoding, fusion=fusion), tangles[:batch_size])


def test_runner_records_four_graph_nodes_per_round(workload, monkeypatch):
    """A round of the gated fusion loop records four graph nodes however
    many episodes it advances: the gather of the step's encoded rows, the
    gather of the episodes' previous ``[h | c]`` states, the LSTM cell step
    and the halting head.  After its loop a group records five more: the
    classifier's gather and projection, the concatenated heads and their
    two log-probability columns.  Nodes are counted as ``Tensor._make``
    calls; the encoder's are counted apart."""
    dataset, tangles = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config("absolute"))
    counts = {"nodes": 0, "encode": 0, "rounds": 0}
    make = Tensor._make
    encode = batched_episodes._PaddedMinibatch.encode
    head = HaltingPolicy.head

    def counting_make(data, parents, backward):
        counts["nodes"] += 1
        return make(data, parents, backward)

    def counting_encode(self, start, stop, cache):
        before = counts["nodes"]
        chunk = encode(self, start, stop, cache)
        counts["encode"] += counts["nodes"] - before
        return chunk

    def counting_head(self, states):
        counts["rounds"] += 1
        return head(self, states)

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
    monkeypatch.setattr(batched_episodes._PaddedMinibatch, "encode", counting_encode)
    monkeypatch.setattr(HaltingPolicy, "head", counting_head)
    model.run_episodes(
        tangles[:8], mode="sample", rngs=[np.random.default_rng(seed) for seed in range(8)]
    )
    assert counts["rounds"] > 10, counts
    assert counts["nodes"] - counts["encode"] == 4 * counts["rounds"] + 5, counts


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
def test_forced_multi_bucket_batch_preserves_parity(workload, encoding):
    """Mixed short/long tangles force the length-bucketed grouping path."""
    dataset, _ = workload
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(0))
    short = retangle_by_concurrency(
        split.train, dataset.spec, 2, rng=np.random.default_rng(1)
    )
    long = retangle_by_concurrency(
        split.train, dataset.spec, 6, rng=np.random.default_rng(2)
    )
    batch = [short[0], long[0], short[1], long[1]]
    config = small_config(encoding)

    trainer = KVECTrainer(KVEC(dataset.spec, dataset.num_classes, config))
    assert len(trainer._length_buckets(batch)) > 1, [len(t) for t in batch]
    _assert_loss_parity(dataset, config, batch)


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
def test_end_of_training_accuracy_matches_per_sample(workload, encoding):
    """Full train() runs on the runner and on the reference agree at a fixed seed.

    The reference leg swaps the trainer's ``batched_episode_losses`` for the
    per-tangle oracle, so both legs run through the same ``_train_epoch``
    and derive identical per-episode action RNGs from the master stream:
    the sampled trajectories — and therefore every update and the final
    accuracy — coincide (losses within the 1e-8 parity bound)."""
    dataset, tangles = workload
    histories = {}
    for reference in (True, False):
        config = small_config(encoding)
        model = KVEC(dataset.spec, dataset.num_classes, config)
        trainer = KVECTrainer(model)
        if reference:
            trainer.batched_episode_losses = functools.partial(
                episode_oracle.episode_losses, trainer
            )
        histories[reference] = trainer.train(tangles[:8], epochs=2)
    per_sample, batched = histories[True], histories[False]
    assert batched.series("accuracy") == per_sample.series("accuracy")
    np.testing.assert_allclose(
        batched.series("loss"), per_sample.series("loss"), atol=PARITY_ATOL
    )
    np.testing.assert_allclose(
        batched.series("earliness"), per_sample.series("earliness"), atol=PARITY_ATOL
    )


def test_config_flag_selects_batched_path(workload):
    """The lockstep runner is the only training path: ``batched=False``
    names the removed per-sample path instead of silently training."""
    dataset, _ = workload
    model = KVEC(dataset.spec, dataset.num_classes, small_config("absolute"))
    KVECTrainer(model, batched=True)
    with pytest.raises(ValueError, match="per-sample training path was removed"):
        KVECTrainer(model, batched=False)


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
def test_batched_training_smoke_above_chance(encoding):
    """Both encodings train to above-chance accuracy via the batched path.

    Mirrors the ``trained_tiny_kvec`` recipe (36 flows, concurrency 3, six
    epochs) which the trainer suite pins above 0.3 accuracy.  Budgeted well
    under the 30 s contract on an idle machine."""
    start = time.monotonic()
    dataset = make_ustc_tfc2016(num_flows=36, seed=3)
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(0))
    tangles = retangle_by_concurrency(
        split.train, dataset.spec, 3, rng=np.random.default_rng(1)
    )
    config = small_config(encoding, epochs=6)
    model = KVEC(dataset.spec, dataset.num_classes, config)
    trainer = KVECTrainer(model)
    history = trainer.train(tangles)
    final = history.final()
    assert final.accuracy > 1.5 / dataset.num_classes, final
    assert final.accuracy > 0.3, final
    assert time.monotonic() - start < 30.0

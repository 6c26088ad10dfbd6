"""Tests for the assembled KVEC model and its episode semantics."""

import numpy as np
import pytest

from repro.core.config import KVECConfig
from repro.core.correlation import build_correlation_structure
from repro.core.model import KVEC, PredictionRecord
from repro.data.items import Item, TangledSequence, ValueSpec

SPEC = ValueSpec(("size", "direction"), (8, 2), session_field=1)


def make_tangle(num_items=12, num_keys=3, seed=0):
    rng = np.random.default_rng(seed)
    items = [
        Item(f"k{i % num_keys}", (int(rng.integers(0, 8)), int(rng.integers(0, 2))), float(i))
        for i in range(num_items)
    ]
    labels = {f"k{i}": i % 2 for i in range(num_keys)}
    return TangledSequence(items, labels, SPEC)


@pytest.fixture
def small_model(tiny_kvec_config):
    return KVEC(SPEC, num_classes=2, config=tiny_kvec_config)


def run_one(model, tangle, mode="greedy", seed=0, **kwargs):
    """One tangle through the lockstep runner; returns its EpisodeResult."""
    results, _ = model.run_episodes(
        [tangle], mode=mode, rngs=[np.random.default_rng(seed)], **kwargs
    )
    return results[0]


class TestConfigValidation:
    def test_defaults_valid(self):
        KVECConfig()

    def test_heads_must_divide_dimension(self):
        with pytest.raises(ValueError):
            KVECConfig(d_model=30, num_heads=4)

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError):
            KVECConfig(fusion="concat")

    def test_with_overrides_returns_copy(self):
        config = KVECConfig()
        modified = config.with_overrides(beta=0.5)
        assert modified.beta == 0.5
        assert config.beta != 0.5

    def test_paper_scale_sizes(self):
        paper = KVECConfig().paper_scale()
        assert paper.d_model == 128
        assert paper.num_blocks == 6
        assert paper.epochs == 100


class TestEpisodes:
    def test_every_key_gets_classified(self, small_model):
        result = run_one(small_model, make_tangle(), mode="greedy")
        records = result.records()
        assert {record.key for record in records} == {"k0", "k1", "k2"}
        assert all(record.predicted is not None for record in records)

    def test_halt_observation_bounded_by_sequence_length(self, small_model):
        result = run_one(small_model, make_tangle(20, 4), mode="sample")
        for record in result.records():
            assert 1 <= record.halt_observation <= record.sequence_length

    def test_greedy_mode_is_deterministic(self, small_model):
        small_model.eval()
        first = run_one(small_model, make_tangle(), mode="greedy").records()
        second = run_one(small_model, make_tangle(), mode="greedy").records()
        assert [(r.key, r.predicted, r.halt_observation) for r in first] == [
            (r.key, r.predicted, r.halt_observation) for r in second
        ]

    def test_high_threshold_forces_full_observation(self, small_model):
        result = run_one(small_model, make_tangle(), mode="greedy", halt_threshold=1.1)
        for record in result.records():
            assert record.halt_observation == record.sequence_length
            assert not record.halted_by_policy

    def test_invalid_mode_rejected(self, small_model):
        with pytest.raises(ValueError):
            run_one(small_model, make_tangle(), mode="bogus")

    def test_empty_tangle_rejected(self, small_model):
        with pytest.raises(ValueError):
            run_one(small_model, make_tangle(), max_items=0)

    def test_max_items_truncates(self, small_model):
        result = run_one(
            small_model, make_tangle(12, 2), mode="greedy", halt_threshold=1.1, max_items=6
        )
        total_observed = sum(record.halt_observation for record in result.records())
        assert total_observed == 6

    def test_attention_maps_only_when_requested(self, small_model):
        small_model.encode_inference(make_tangle(), store_attention=True)
        maps = small_model.encoder.attention_maps()
        assert len(maps) == small_model.config.num_blocks
        assert all(weights.shape == (1, 12, 12) for weights in maps)
        small_model.encode_inference(make_tangle())
        assert not small_model.encoder.attention_maps()

    def test_episode_states_align_with_actions(self, small_model):
        result, tail = small_model.run_episodes(
            [make_tangle(16, 2)], mode="sample", rngs=[np.random.default_rng(0)]
        )
        for episode in result[0].episodes.values():
            assert len(episode.states) == len(episode.actions)
        assert tail.num_steps == sum(len(e.actions) for e in result[0].episodes.values())


#: Every entry point that truncates a tangle, called with a negative length.
NEGATIVE_PREFIX_CALLS = {
    "InputEmbedding.forward": lambda model, tangle: model.input_embedding(tangle, upto=-1),
    "predict_tangle": lambda model, tangle: model.predict_tangle(tangle, max_items=-1),
    "encode_inference": lambda model, tangle: model.encode_inference(tangle, upto=-1),
    "run_episodes": lambda model, tangle: run_one(model, tangle, max_items=-1),
    "build_correlation_structure": lambda model, tangle: build_correlation_structure(
        tangle, upto=-1
    ),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_PREFIX_CALLS))
def test_negative_prefix_length_rejected(small_model, entry):
    """A negative ``upto``/``max_items`` is refused up front instead of
    misaligning the embedding columns or failing inside numpy."""
    with pytest.raises(ValueError, match="prefix length must be non-negative, got -1"):
        NEGATIVE_PREFIX_CALLS[entry](small_model, make_tangle())


@pytest.mark.parametrize("encoding", ["absolute", "rotary"])
def test_encode_inference_walks_the_tangle_once(tiny_kvec_config, monkeypatch, encoding):
    """The mask, its pairs, the coordinates and the rotary inputs of an
    encode all come from one column table: each row's key code and
    within-key rank are read once."""
    model = KVEC(SPEC, num_classes=2, config=tiny_kvec_config.with_overrides(encoding=encoding))
    tangle = make_tangle(14, 3)
    calls = {"key_index": 0, "position_in_key_sequence": 0}
    for name in calls:
        original = getattr(TangledSequence, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TangledSequence, name, spy)
    model.encode_inference(tangle, upto=11)
    assert calls == {"key_index": 11, "position_in_key_sequence": 11}


class TestPredictionInterface:
    def test_predict_tangle_returns_records(self, small_model):
        records = small_model.predict_tangle(make_tangle())
        assert all(isinstance(record, PredictionRecord) for record in records)

    def test_predict_tangle_restores_training_mode(self, small_model):
        small_model.train()
        small_model.predict_tangle(make_tangle())
        assert small_model.training

    def test_prediction_record_properties(self):
        record = PredictionRecord(
            key="k", predicted=1, label=1, halt_observation=5, sequence_length=20
        )
        assert record.correct
        assert record.earliness == pytest.approx(0.25)

    def test_zero_length_sequence_earliness_is_one(self):
        record = PredictionRecord(
            key="k", predicted=0, label=1, halt_observation=0, sequence_length=0
        )
        assert record.earliness == 1.0

    def test_trainable_parameters_exclude_baseline(self, small_model):
        trainable_ids = {id(p) for p in small_model.trainable_parameters()}
        baseline_ids = {id(p) for p in small_model.baseline.parameters()}
        assert not trainable_ids & baseline_ids
        assert len(trainable_ids) + len(baseline_ids) == len(small_model.parameters())


class TestAblationsAffectComputation:
    def test_value_correlation_changes_visibility(self, tiny_kvec_config):
        tangle = make_tangle(10, 2)
        full = KVEC(SPEC, 2, tiny_kvec_config)
        ablated = KVEC(SPEC, 2, tiny_kvec_config.with_overrides(use_value_correlation=False))
        _, full_structure = full.encode_inference(tangle)
        _, ablated_structure = ablated.encode_inference(tangle)
        assert full_structure.visible_pairs() >= ablated_structure.visible_pairs()
        assert not ablated_structure.value_correlated.any()

    def test_mean_fusion_variant_runs(self, tiny_kvec_config):
        model = KVEC(SPEC, 2, tiny_kvec_config.with_overrides(fusion="mean"))
        records = model.predict_tangle(make_tangle())
        assert len(records) == 3

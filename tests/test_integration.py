"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.eval.metrics import summarize
from repro.nn.serialization import load_into, save_state_dict


class TestEndToEnd:
    def test_train_predict_summarize_pipeline(self, trained_tiny_kvec):
        model = trained_tiny_kvec["model"]
        splits = trained_tiny_kvec["splits"]
        records = [r for tangle in splits["test"] for r in model.predict_tangle(tangle)]
        summary = summarize(records)
        assert summary.num_sequences == sum(t.num_keys for t in splits["test"])
        assert 0.0 < summary.earliness <= 1.0
        assert summary.accuracy > 0.0

    def test_save_and_reload_reproduces_predictions(self, trained_tiny_kvec, tmp_path):
        model = trained_tiny_kvec["model"]
        splits = trained_tiny_kvec["splits"]
        config = trained_tiny_kvec["config"]
        path = tmp_path / "kvec.npz"
        save_state_dict(model, path)

        restored = KVEC(splits["spec"], splits["num_classes"], config)
        load_into(restored, path)

        tangle = splits["test"][0]
        original = model.predict_tangle(tangle)
        reloaded = restored.predict_tangle(tangle)
        assert [(r.key, r.predicted, r.halt_observation) for r in original] == [
            (r.key, r.predicted, r.halt_observation) for r in reloaded
        ]

    def test_kvec_beats_no_training_baseline(self, trained_tiny_kvec):
        """Training must beat an untrained copy of the same architecture."""
        splits = trained_tiny_kvec["splits"]
        config = trained_tiny_kvec["config"]
        untrained = KVEC(splits["spec"], splits["num_classes"], config.with_overrides(seed=99))
        trained_records = [
            r for tangle in splits["test"] for r in trained_tiny_kvec["model"].predict_tangle(tangle)
        ]
        untrained_records = [r for tangle in splits["test"] for r in untrained.predict_tangle(tangle)]
        trained_accuracy = np.mean([r.correct for r in trained_records])
        untrained_accuracy = np.mean([r.correct for r in untrained_records])
        assert trained_accuracy >= untrained_accuracy

    def test_training_is_reproducible_given_seed(self, tiny_splits, tiny_kvec_config):
        results = []
        for _ in range(2):
            model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
            KVECTrainer(model).train(tiny_splits["train"], epochs=1)
            records = model.predict_tangle(tiny_splits["test"][0])
            results.append([(r.key, r.predicted, r.halt_observation) for r in records])
        assert results[0] == results[1]

    def test_value_correlation_enriches_early_representation(self, tiny_splits, tiny_kvec_config):
        """The tangled correlation structure must expose strictly more context
        to the encoder than independent per-sequence modelling."""
        full = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        independent = KVEC(
            tiny_splits["spec"],
            tiny_splits["num_classes"],
            tiny_kvec_config.with_overrides(use_value_correlation=False),
        )
        tangle = tiny_splits["train"][0]
        _, full_structure = full.encode_inference(tangle)
        _, independent_structure = independent.encode_inference(tangle)
        assert full_structure.visible_pairs() > independent_structure.visible_pairs()

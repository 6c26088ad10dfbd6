"""Tests for the KVEC trainer (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.ablations import ABLATION_VARIANTS, make_kvec_variant
from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer, TrainingHistory


def tangle_losses(trainer, tangle, seed=0):
    """``batched_episode_losses`` for a minibatch of one tangle."""
    return trainer.batched_episode_losses([tangle], [np.random.default_rng(seed)])


class TestEpisodeLosses:
    def test_loss_terms_are_finite(self, tiny_splits, tiny_kvec_config):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        trainer = KVECTrainer(model)
        total, baseline_loss, results, parts = tangle_losses(trainer, tiny_splits["train"][0])
        assert np.isfinite(total.data)
        assert np.isfinite(baseline_loss.data)
        assert all(np.isfinite(value) for value in parts.values())
        assert results[0].num_keys >= 1

    def test_backward_produces_gradients_for_model_and_baseline(self, tiny_splits, tiny_kvec_config):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        trainer = KVECTrainer(model)
        total, baseline_loss, _, _ = tangle_losses(trainer, tiny_splits["train"][0])
        total.backward()
        baseline_loss.backward()
        assert any(p.grad is not None for p in model.trainable_parameters())
        assert any(p.grad is not None for p in model.baseline.parameters())

    @pytest.mark.parametrize(
        "num_tangles, num_rngs, match",
        [
            (0, 0, "requires at least one tangle"),
            (2, 1, "got 1 RNGs for 2 tangles"),
            (2, 3, "got 3 RNGs for 2 tangles"),
        ],
    )
    def test_malformed_minibatch_rejected(
        self, tiny_splits, tiny_kvec_config, num_tangles, num_rngs, match
    ):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        rngs = [np.random.default_rng(seed) for seed in range(num_rngs)]
        with pytest.raises(ValueError, match=match):
            KVECTrainer(model).batched_episode_losses(tiny_splits["train"][:num_tangles], rngs)

    def test_baseline_loss_does_not_touch_encoder(self, tiny_splits, tiny_kvec_config):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        trainer = KVECTrainer(model)
        _, baseline_loss, _, _ = tangle_losses(trainer, tiny_splits["train"][0])
        model.zero_grad()
        baseline_loss.backward()
        encoder_grads = [p.grad for p in model.encoder.parameters()]
        assert all(grad is None for grad in encoder_grads)
        assert any(p.grad is not None for p in model.baseline.parameters())


class TestTraining:
    def test_history_length_matches_epochs(self, tiny_splits, tiny_kvec_config):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        history = KVECTrainer(model).train(tiny_splits["train"], epochs=2)
        assert isinstance(history, TrainingHistory)
        assert len(history) == 2
        assert history.final().epoch == 2

    def test_training_improves_accuracy(self, trained_tiny_kvec):
        history = trained_tiny_kvec["history"]
        accuracies = history.series("accuracy")
        assert accuracies[-1] > accuracies[0]
        assert accuracies[-1] > 0.3

    def test_trained_model_beats_chance_on_test(self, trained_tiny_kvec):
        model = trained_tiny_kvec["model"]
        splits = trained_tiny_kvec["splits"]
        records = [r for tangle in splits["test"] for r in model.predict_tangle(tangle)]
        accuracy = np.mean([record.correct for record in records])
        assert accuracy > 1.5 / splits["num_classes"]

    def test_empty_training_set_rejected(self, tiny_splits, tiny_kvec_config):
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        with pytest.raises(ValueError):
            KVECTrainer(model).train([])

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_non_positive_epochs_rejected(self, tiny_splits, tiny_kvec_config, epochs):
        """``epochs=None`` means the config value; 0 is not "unset"."""
        model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config)
        with pytest.raises(ValueError, match="epochs must be positive"):
            KVECTrainer(model).train(tiny_splits["train"], epochs=epochs)

    def test_epoch_stats_serializable(self, trained_tiny_kvec):
        stats = trained_tiny_kvec["history"].final().as_dict()
        assert {"loss", "accuracy", "earliness", "epoch"} <= set(stats)

    def test_larger_beta_encourages_earlier_halting(self, tiny_splits):
        """The time-penalty weight beta is the earliness knob of KVEC."""
        config_late = KVECConfig(
            d_model=16, num_blocks=1, num_heads=1, ffn_hidden=24, d_state=20,
            dropout=0.0, epochs=5, batch_size=4, learning_rate=3e-3, beta=0.0, seed=1,
        )
        config_early = config_late.with_overrides(beta=0.5)
        earliness = {}
        for name, config in (("late", config_late), ("early", config_early)):
            model = KVEC(tiny_splits["spec"], tiny_splits["num_classes"], config)
            KVECTrainer(model).train(tiny_splits["train"])
            records = [r for tangle in tiny_splits["test"] for r in model.predict_tangle(tangle)]
            earliness[name] = np.mean([record.earliness for record in records])
        assert earliness["early"] <= earliness["late"] + 0.05


class TestAblationFactory:
    def test_all_variants_constructible(self, tiny_splits, tiny_kvec_config):
        for variant in ABLATION_VARIANTS:
            model = make_kvec_variant(
                variant, tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config
            )
            assert isinstance(model, KVEC)

    def test_variant_flags_applied(self, tiny_splits, tiny_kvec_config):
        model = make_kvec_variant(
            "w/o Value Correlation", tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config
        )
        assert not model.config.use_value_correlation
        model = make_kvec_variant(
            "w/o Membership Embed.", tiny_splits["spec"], tiny_splits["num_classes"], tiny_kvec_config
        )
        assert not model.config.use_membership_embedding

    def test_unknown_variant_rejected(self, tiny_splits, tiny_kvec_config):
        with pytest.raises(KeyError):
            make_kvec_variant("w/o Everything", tiny_splits["spec"], 2, tiny_kvec_config)

"""Tests for saving and restoring trained KVEC models."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from repro.core.config import KVECConfig
from repro.core.model import KVEC


class TestCheckpointRoundTrip:
    def test_predictions_identical_after_reload(self, trained_tiny_kvec, tmp_path):
        model = trained_tiny_kvec["model"]
        splits = trained_tiny_kvec["splits"]
        directory = save_checkpoint(model, tmp_path / "kvec")
        restored = load_checkpoint(directory)

        original_records = model.predict_tangle(splits["test"][0])
        restored_records = restored.predict_tangle(splits["test"][0])
        assert [(r.key, r.predicted, r.halt_observation) for r in original_records] == [
            (r.key, r.predicted, r.halt_observation) for r in restored_records
        ]

    def test_config_and_schema_preserved(self, trained_tiny_kvec, tmp_path):
        model = trained_tiny_kvec["model"]
        restored = load_checkpoint(save_checkpoint(model, tmp_path / "kvec"))
        assert restored.config == model.config
        assert restored.spec == model.spec
        assert restored.num_classes == model.num_classes

    def test_weights_actually_copied(self, trained_tiny_kvec, tmp_path):
        model = trained_tiny_kvec["model"]
        restored = load_checkpoint(save_checkpoint(model, tmp_path / "kvec"))
        for (name, original), (_, copy) in zip(
            sorted(model.named_parameters()), sorted(restored.named_parameters())
        ):
            assert np.allclose(original.data, copy.data), name

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "does-not-exist")

    def test_shape_mismatch_detected(self, trained_tiny_kvec, tmp_path, simple_spec):
        model = trained_tiny_kvec["model"]
        directory = save_checkpoint(model, tmp_path / "kvec")
        # Tamper with the stored config so the rebuilt model has other shapes.
        config_file = directory / "config.json"
        import json

        payload = json.loads(config_file.read_text())
        payload["config"]["d_model"] = payload["config"]["d_model"] * 2
        payload["config"]["num_heads"] = 1
        config_file.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(directory)

    def test_untrained_model_round_trip(self, simple_spec, tmp_path):
        config = KVECConfig(d_model=8, num_blocks=1, num_heads=1, ffn_hidden=16, d_state=12,
                            dropout=0.0, epochs=1, batch_size=2)
        model = KVEC(simple_spec, 3, config)
        restored = load_checkpoint(save_checkpoint(model, tmp_path / "fresh"))
        assert restored.num_classes == 3

    def test_rotary_encoding_round_trip(self, simple_spec, tmp_path):
        """The eviction-stable scheme (extra rel_bias params, no absolute
        position/time tables) must checkpoint and reload losslessly."""
        config = KVECConfig(d_model=8, num_blocks=2, num_heads=2, ffn_hidden=16, d_state=12,
                            dropout=0.0, encoding="rotary", epochs=1, batch_size=2)
        model = KVEC(simple_spec, 3, config)
        restored = load_checkpoint(save_checkpoint(model, tmp_path / "rotary"))
        assert restored.config.encoding == "rotary"
        assert restored.input_embedding.position_embedding is None
        np.testing.assert_array_equal(
            restored.encoder.blocks[0].attention.rel_bias.weight.data,
            model.encoder.blocks[0].attention.rel_bias.weight.data,
        )


def _tiny_model(spec):
    config = KVECConfig(d_model=8, num_blocks=1, num_heads=1, ffn_hidden=16, d_state=12,
                        dropout=0.0, epochs=1, batch_size=2)
    return KVEC(spec, 3, config)


def _edit_config(directory, edit):
    config_file = directory / "config.json"
    payload = json.loads(config_file.read_text())
    edit(payload)
    config_file.write_text(json.dumps(payload))


class TestCheckpointBoundary:
    """A malformed checkpoint is refused with a ValueError naming the problem."""

    def test_format_version_written(self, simple_spec, tmp_path):
        directory = save_checkpoint(_tiny_model(simple_spec), tmp_path / "kvec")
        payload = json.loads((directory / "config.json").read_text())
        assert payload["format_version"] == FORMAT_VERSION == 1

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda p: p.pop("format_version"), "format_version None"),
            (lambda p: p.update(format_version=2), "format_version 2"),
            (lambda p: p.update(format_version=True), "format_version True"),
            (lambda p: p["config"].update(bogus=1), "unknown fields \\['bogus'\\]"),
            (lambda p: p["config"].update(d_model="32"), "config.d_model must be of type int"),
            (lambda p: p["config"].update(dropout=float("nan")), "config.dropout must be a finite"),
            (lambda p: p["config"].update(batched_training=1), "batched_training must be of type bool"),
            (lambda p: p["config"].update(seed=True), "config.seed must be of type int"),
            (lambda p: p["config"].update(num_heads=0), "num_heads must be positive"),
            (lambda p: p["config"].update(num_heads=-2), "num_heads must be positive"),
            (lambda p: p.update(num_classes="3"), "num_classes must be of type int"),
            (lambda p: p["spec"].update(cardinalities=[4.5, 3]), "spec.cardinalities"),
            (lambda p: p.pop("spec"), "spec must be of type dict"),
        ],
    )
    def test_malformed_config_rejected(self, simple_spec, tmp_path, edit, match):
        directory = save_checkpoint(_tiny_model(simple_spec), tmp_path / "kvec")
        _edit_config(directory, edit)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(directory)

    @pytest.mark.parametrize("value", [False, True])
    def test_retired_batched_training_flag_dropped(self, simple_spec, tmp_path, value):
        """Checkpoints saved while the config still chose a training path load."""
        model = _tiny_model(simple_spec)
        directory = save_checkpoint(model, tmp_path / "kvec")
        _edit_config(directory, lambda p: p["config"].update(batched_training=value))
        assert load_checkpoint(directory).config == model.config

    def test_non_finite_weight_rejected(self, simple_spec, tmp_path):
        directory = save_checkpoint(_tiny_model(simple_spec), tmp_path / "kvec")
        with np.load(directory / "weights.npz") as archive:
            state = {name: archive[name] for name in archive.files}
        state["baseline.hidden_layer.bias"][0] = np.nan
        np.savez_compressed(directory / "weights.npz", **state)
        with pytest.raises(ValueError, match="baseline.hidden_layer.bias"):
            load_checkpoint(directory)

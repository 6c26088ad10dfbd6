"""Saving and restoring trained KVEC models.

A downstream user trains KVEC once and serves it online (see
:mod:`repro.serving`); that requires persisting everything needed to rebuild
the model: the value schema, the number of classes, the configuration and
all learned parameters.  Checkpoints are a directory containing

* ``config.json`` — format version, schema, class count and
  :class:`KVECConfig` fields,
* ``weights.npz`` — the flat ``state_dict`` of the model.

Loading is a trust boundary: a checkpoint with a missing or unknown format
version, an unknown config field, a value of the wrong type or a
non-finite weight is refused with a ``ValueError`` naming the problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import ValueSpec
from repro.nn.serialization import load_state_dict, save_state_dict

PathLike = Union[str, Path]

CONFIG_FILE = "config.json"
WEIGHTS_FILE = "weights.npz"

#: Layout version written into ``config.json``; loading refuses any other.
FORMAT_VERSION = 1


def save_checkpoint(model: KVEC, directory: PathLike) -> Path:
    """Write a complete checkpoint of ``model``; returns the directory path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "spec": {
            "field_names": list(model.spec.field_names),
            "cardinalities": list(int(c) for c in model.spec.cardinalities),
            "session_field": int(model.spec.session_field),
        },
        "num_classes": int(model.num_classes),
        "config": dataclasses.asdict(model.config),
    }
    (directory / CONFIG_FILE).write_text(json.dumps(payload, indent=2, sort_keys=True))
    save_state_dict(model, directory / WEIGHTS_FILE)
    return directory


def load_checkpoint(directory: PathLike) -> KVEC:
    """Rebuild a KVEC model from a checkpoint directory.

    Raises ``FileNotFoundError`` when ``directory`` is not a checkpoint and
    ``ValueError`` when its contents are malformed.
    """
    directory = Path(directory)
    config_path = directory / CONFIG_FILE
    weights_path = directory / WEIGHTS_FILE
    if not config_path.exists() or not weights_path.exists():
        raise FileNotFoundError(f"{directory} is not a KVEC checkpoint directory")
    payload = _typed(json.loads(config_path.read_text()), dict, CONFIG_FILE)
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(
            f"{config_path}: format_version {version!r} is missing or unknown "
            f"(expected {FORMAT_VERSION})"
        )
    spec_fields = _typed(payload.get("spec"), dict, "spec")
    spec = ValueSpec(
        field_names=tuple(
            _typed(name, str, "spec.field_names[]")
            for name in _typed(spec_fields.get("field_names"), list, "spec.field_names")
        ),
        cardinalities=tuple(
            _typed(card, int, "spec.cardinalities[]")
            for card in _typed(spec_fields.get("cardinalities"), list, "spec.cardinalities")
        ),
        session_field=_typed(spec_fields.get("session_field"), int, "spec.session_field"),
    )
    num_classes = _typed(payload.get("num_classes"), int, "num_classes")
    config = _config_from_json(_typed(payload.get("config"), dict, "config"))
    model = KVEC(spec, num_classes, config)
    state = load_state_dict(weights_path)
    _load_weights(model, state)
    return model


def _typed(value, expected: type, where: str):
    """Return ``value`` if it is a JSON value of type ``expected``.

    ``bool`` is not accepted as an integer, and a float must be finite.
    """
    if expected is float:
        valid = isinstance(value, (int, float)) and not isinstance(value, bool)
        valid = valid and math.isfinite(value)
    else:
        valid = isinstance(value, expected) and (expected is bool or not isinstance(value, bool))
    if not valid:
        kind = "a finite number" if expected is float else f"of type {expected.__name__}"
        raise ValueError(f"checkpoint {where} must be {kind}, got {value!r}")
    return value


def _config_from_json(fields: dict) -> KVECConfig:
    """Build the config, refusing unknown fields and mistyped values.

    A boolean ``batched_training``, which checkpoints written before the
    per-sample training path was removed carry, is dropped: it chose a
    training path and never affected weights or inference.
    """
    if "batched_training" in fields:
        _typed(fields["batched_training"], bool, "config.batched_training")
        fields = {name: value for name, value in fields.items() if name != "batched_training"}
    types = typing.get_type_hints(KVECConfig)
    unknown = sorted(set(fields) - set(types))
    if unknown:
        raise ValueError(f"checkpoint config has unknown fields {unknown}")
    for name, value in fields.items():
        _typed(value, types[name], f"config.{name}")
    return KVECConfig(**fields)


def _load_weights(model: KVEC, state: dict) -> None:
    """Copy a flat state dict into the model, checking names, shapes and values."""
    named = dict(model.named_parameters())
    missing = sorted(set(named) - set(state))
    unexpected = sorted(set(state) - set(named))
    if missing or unexpected:
        raise ValueError(
            f"checkpoint mismatch: missing={missing[:5]} unexpected={unexpected[:5]}"
        )
    for name, parameter in named.items():
        weights = state[name]
        if weights.shape != parameter.data.shape:
            raise ValueError(
                f"shape mismatch for {name}: checkpoint {weights.shape}, model {parameter.data.shape}"
            )
        if weights.dtype.kind not in "iuf" or not np.all(np.isfinite(weights)):
            raise ValueError(f"checkpoint weight {name} must hold finite numbers")
        parameter.data = weights.copy()

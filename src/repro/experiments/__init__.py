"""The experiment harness reproducing every table and figure of the paper.

* :mod:`~repro.experiments.presets` — the ``unit`` / ``bench`` / ``paper``
  scale presets (dataset sizes, model sizes, hyperparameter sweeps).
* :mod:`~repro.experiments.methods` — factories building each compared method
  from a trade-off hyperparameter value.
* :mod:`~repro.experiments.figures` / :mod:`~repro.experiments.tables` — the
  run functions, one per paper artifact.
* :mod:`~repro.experiments.registry` — the experiment index mapping artifact
  ids (``fig3_accuracy``, ``table1_dataset_stats``, ...) to run functions.
* :mod:`~repro.experiments.crossval` — the paper's five-fold
  cross-validation protocol (Section V-A4).
* :mod:`~repro.experiments.cli` — the command line:
  ``python -m repro experiments`` lists the registry and
  ``python -m repro run fig3_accuracy --scale bench`` runs one experiment.
"""

from repro.experiments.presets import ExperimentScale, get_scale, SCALES
from repro.experiments.methods import METHOD_ORDER, method_sweeps
from repro.experiments.registry import EXPERIMENTS, Experiment, get_experiment, list_experiments
from repro.experiments.crossval import (
    CrossValidationResult,
    compare_cross_validated,
    cross_validate,
    fold_tangles,
)

__all__ = [
    "CrossValidationResult",
    "cross_validate",
    "compare_cross_validated",
    "fold_tangles",
    "ExperimentScale",
    "get_scale",
    "SCALES",
    "METHOD_ORDER",
    "method_sweeps",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "list_experiments",
]

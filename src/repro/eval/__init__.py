"""Evaluation: metrics, streaming evaluation and the paper's analyses.

* :mod:`~repro.eval.metrics` — earliness, accuracy, macro precision/recall/F1
  and the harmonic mean (HM) of accuracy and earliness (Section V-A3).
* :mod:`~repro.eval.estimators` — the :class:`KVECEstimator` adapter that
  gives KVEC the same ``fit`` / ``predict_tangle`` interface as the baselines.
* :mod:`~repro.eval.evaluator` — train/evaluate orchestration on a dataset.
* :mod:`~repro.eval.curves` — performance-vs-earliness curves obtained by
  sweeping each method's trade-off hyperparameter (Figs. 3-7).
* :mod:`~repro.eval.attention_analysis` — internal vs external attention
  scores at varied halting positions (Fig. 10).
* :mod:`~repro.eval.halting_analysis` — halting-position distributions on the
  Synthetic-Traffic dataset (Fig. 11).
* :mod:`~repro.eval.reporting` — ASCII rendering of result tables and series.
* :mod:`~repro.eval.confusion` — confusion matrices and per-class reports.
* :mod:`~repro.eval.significance` — bootstrap intervals and paired tests
  (paired bootstrap, McNemar) for comparing methods.
"""

from repro.eval.metrics import (
    MetricSummary,
    accuracy,
    earliness,
    harmonic_mean,
    macro_f1,
    macro_precision,
    macro_recall,
    summarize,
)
from repro.eval.estimators import KVECEstimator
from repro.eval.evaluator import EvaluationResult, evaluate_method, prepare_tangled_splits
from repro.eval.curves import CurvePoint, PerformanceCurve, sweep_method
from repro.eval.attention_analysis import AttentionScorePoint, attention_score_profile
from repro.eval.halting_analysis import HaltingDistribution, halting_position_distribution
from repro.eval.reporting import render_curves, render_metric_table
from repro.eval.confusion import ConfusionMatrix, classification_report
from repro.eval.significance import (
    BootstrapInterval,
    PairedTestResult,
    bootstrap_ci,
    compare_methods,
    mcnemar_test,
    paired_bootstrap_test,
)

__all__ = [
    "ConfusionMatrix",
    "classification_report",
    "BootstrapInterval",
    "PairedTestResult",
    "bootstrap_ci",
    "paired_bootstrap_test",
    "mcnemar_test",
    "compare_methods",
    "MetricSummary",
    "accuracy",
    "earliness",
    "harmonic_mean",
    "macro_precision",
    "macro_recall",
    "macro_f1",
    "summarize",
    "KVECEstimator",
    "EvaluationResult",
    "evaluate_method",
    "prepare_tangled_splits",
    "CurvePoint",
    "PerformanceCurve",
    "sweep_method",
    "AttentionScorePoint",
    "attention_score_profile",
    "HaltingDistribution",
    "halting_position_distribution",
    "render_curves",
    "render_metric_table",
]

"""Integration tests: every registered experiment runs at unit scale.

These are the slowest tests in the suite (a few seconds each); together they
guarantee that each table/figure harness produces a structurally valid result.
"""

import pytest

from repro.experiments.figures import (
    run_fig8_sensitivity,
    run_fig9_ablation,
    run_fig10_attention,
    run_fig11_halting,
    run_fig12_concurrency,
    run_performance_figure,
)
from repro.experiments.presets import get_scale
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.tables import run_table1_dataset_stats, run_table2_hyperparameters
from repro.experiments.workloads import clear_workload_caches


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_workload_caches()
    yield
    clear_workload_caches()


class TestTables:
    def test_table1_rows_for_every_dataset(self):
        result = run_table1_dataset_stats("unit")
        assert set(result.generated) == set(result.published)
        for name, stats in result.generated.items():
            assert stats.num_classes == result.published[name].num_classes
        assert "USTC-TFC2016" in result.render()

    def test_table2_lists_every_method(self):
        result = run_table2_hyperparameters("unit")
        methods = [row[0] for row in result.rows]
        assert methods == ["KVEC", "EARLIEST", "SRN-EARLIEST", "SRN-Fixed", "SRN-Confidence"]
        assert "lambda" in result.render()


class TestPerformanceFigures:
    @pytest.fixture(scope="class")
    def accuracy_result(self):
        # One dataset only at unit scale keeps this affordable; the curves are
        # shared with the other metric figures through the workload cache.
        return run_performance_figure("accuracy", "unit", datasets=("USTC-TFC2016",))

    def test_every_method_has_a_curve(self, accuracy_result):
        curves = accuracy_result.curves["USTC-TFC2016"]
        assert set(curves) == {"KVEC", "EARLIEST", "SRN-EARLIEST", "SRN-Fixed", "SRN-Confidence"}
        for curve in curves.values():
            assert curve.points

    def test_metric_values_bounded(self, accuracy_result):
        for curve in accuracy_result.curves["USTC-TFC2016"].values():
            for earliness, value in curve.series("accuracy"):
                assert 0.0 <= earliness <= 1.0
                assert 0.0 <= value <= 1.0

    def test_other_metrics_reuse_cached_curves(self, accuracy_result):
        f1_result = run_performance_figure("f1", "unit", datasets=("USTC-TFC2016",))
        assert f1_result.curves["USTC-TFC2016"]["KVEC"] is accuracy_result.curves["USTC-TFC2016"]["KVEC"]

    def test_render_contains_dataset_and_methods(self, accuracy_result):
        text = accuracy_result.render()
        assert "USTC-TFC2016" in text and "KVEC" in text


class TestAnalysisFigures:
    def test_fig8_sensitivity_structure(self):
        result = run_fig8_sensitivity("unit")
        scale = get_scale("unit")
        assert len(result.alpha_series) == len(scale.alpha_sweep)
        assert len(result.beta_series) == len(scale.beta_sensitivity_sweep)
        assert "alpha" in result.render()

    def test_fig9_ablation_contains_all_variants(self):
        result = run_fig9_ablation("unit")
        assert set(result.summaries) == {
            "KVEC (ours)",
            "w/o Key Correlation",
            "w/o Value Correlation",
            "w/o Time-related Embed.",
            "w/o Membership Embed.",
        }
        assert isinstance(result.accuracy_drop("w/o Value Correlation"), float)

    def test_fig10_attention_profile(self):
        result = run_fig10_attention("unit")
        assert result.points
        for point in result.points:
            assert point.internal_score >= 0.0 and point.external_score >= 0.0

    def test_fig11_halting_distributions(self):
        result = run_fig11_halting("unit", num_bins=5)
        assert set(result.distributions) == {"early", "late"}
        for per_method in result.distributions.values():
            assert "True Halting Positions" in per_method
            assert "Predicted by KVEC" in per_method
            assert "Predicted by KVEC w/o Value Corr." in per_method

    def test_fig12_concurrency_levels(self):
        result = run_fig12_concurrency("unit")
        scale = get_scale("unit")
        assert set(result.points) == set(scale.concurrency_levels)
        for series in result.points.values():
            assert len(series) == len(scale.halt_threshold_sweep)


class TestRunner:
    def test_run_experiment_by_identifier(self):
        result = get_experiment("table2_hyperparameters").run("unit")
        assert result.rows

    def test_registry_and_runner_agree(self):
        identifiers = {experiment.identifier for experiment in list_experiments()}
        assert "fig3_accuracy" in identifiers

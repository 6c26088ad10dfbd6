"""Tests for the command-line interface and the experiment-result persistence."""

import json

import pytest

from repro.data.io import load_dataset
from repro.experiments import figures, tables
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import list_experiments
from repro.experiments.results_io import load_result, save_result, summarise_payload, to_payload


class Capture:
    """Minimal print replacement collecting output lines."""

    def __init__(self):
        self.lines = []

    def __call__(self, text=""):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


class TestParser:
    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("experiments", "run", "datasets", "generate"):
            assert command in parser.format_help()

    def test_run_scale_choices(self):
        parser = build_parser()
        arguments = parser.parse_args(["run", "fig9_ablation", "--scale", "unit"])
        assert arguments.scale == "unit"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig9_ablation", "--scale", "huge"])


class TestCliCommands:
    def test_no_command_prints_help(self):
        capture = Capture()
        assert main([], print_fn=capture) == 1

    def test_experiments_lists_every_registered_id(self):
        capture = Capture()
        assert main(["experiments"], print_fn=capture) == 0
        for experiment in list_experiments():
            assert experiment.identifier in capture.text

    def test_unknown_experiment_returns_error_code(self):
        capture = Capture()
        assert main(["run", "fig99_nonsense"], print_fn=capture) == 2
        assert "unknown experiment" in capture.text

    def test_generate_writes_a_loadable_dataset(self, tmp_path):
        capture = Capture()
        output = tmp_path / "ustc.jsonl"
        code = main(
            ["generate", "USTC-TFC2016", "--num-keys", "12", "--seed", "3", "--output", str(output)],
            print_fn=capture,
        )
        assert code == 0
        dataset = load_dataset(output)
        assert dataset.name == "USTC-TFC2016"
        assert len(dataset.sequences) >= 9  # one per class at minimum

    def test_generate_seed_zero_is_a_seed(self, tmp_path):
        def generate(*seed):
            output = tmp_path / f"{'_'.join(seed) or 'default'}.jsonl"
            command = ["generate", "USTC-TFC2016", "--num-keys", "9", *seed, "--output", str(output)]
            assert main(command, print_fn=Capture()) == 0
            return output.read_bytes()

        default = generate()
        assert generate("--seed", "7") == default  # USTC-TFC2016's own seed
        assert generate("--seed", "0") != default

    def test_run_table1_and_save(self, tmp_path):
        capture = Capture()
        output = tmp_path / "table1.json"
        code = main(
            ["run", "table1_dataset_stats", "--scale", "unit", "--output", str(output)],
            print_fn=capture,
        )
        assert code == 0
        payload = load_result(output)
        assert payload["experiment"] == "table1_dataset_stats"
        assert "USTC-TFC2016" in payload["generated"]


class TestResultsIO:
    def test_table2_payload(self, tmp_path):
        result = tables.run_table2_hyperparameters("unit")
        payload = to_payload("table2_hyperparameters", result, scale="unit")
        assert payload["rows"]
        assert all(len(row) == 4 for row in payload["rows"])
        path = save_result("table2_hyperparameters", result, tmp_path / "t2.json", scale="unit")
        assert json.loads(path.read_text())["scale"] == "unit"

    def test_unknown_result_falls_back_to_rendered_text(self, tmp_path):
        class Custom:
            def render(self):
                return "custom result"

        payload = to_payload("custom", Custom())
        assert payload["rendered"] == "custom result"
        assert summarise_payload(payload) == "custom result"

    def test_summarise_payload_truncates(self):
        payload = {"rendered": "\n".join(f"line {i}" for i in range(10))}
        summary = summarise_payload(payload, max_lines=3)
        assert "line 2" in summary
        assert "more lines" in summary

    def test_load_rejects_non_payload(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_result(path)

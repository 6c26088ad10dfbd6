"""Command-line interface of the reproduction package.

``python -m repro <command>`` gives shell access to the main workflows so a
user can inspect and reproduce the paper without writing Python:

* ``python -m repro experiments`` — list every registered table/figure
  experiment with its paper artifact,
* ``python -m repro run fig9_ablation --scale unit`` — run one experiment
  and print (and optionally save) its result,
* ``python -m repro datasets`` — show the generated Table I statistics next
  to the paper's published values,
* ``python -m repro generate Traffic-FG --num-keys 120 --output flows.jsonl``
  — generate a dataset and export it as JSONL.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.data.io import save_dataset
from repro.datasets.registry import DATASET_BUILDERS, PAPER_STATISTICS, build_dataset
from repro.datasets.stats import compute_statistics
from repro.experiments.presets import SCALES, get_scale
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.results_io import save_result
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Representation Learning of Tangled Key-Value "
        "Sequence Data for Early Classification' (KVEC, ICDE 2024).",
    )
    parser.add_argument("--version", action="version", version=f"kvec-repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("experiments", help="list every registered experiment")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its result")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig9_ablation")
    run_parser.add_argument(
        "--scale",
        default="unit",
        choices=sorted(SCALES),
        help="scale preset (unit is fastest; bench matches the shipped outputs)",
    )
    run_parser.add_argument("--output", default="", help="optional JSON file to save the result to")

    datasets_parser = subparsers.add_parser(
        "datasets", help="show generated dataset statistics next to the paper's Table I"
    )
    datasets_parser.add_argument(
        "--num-keys", type=int, default=0, help="override the number of keys per dataset (0 = default)"
    )

    generate_parser = subparsers.add_parser("generate", help="generate a dataset and export it as JSONL")
    generate_parser.add_argument("dataset", choices=sorted(DATASET_BUILDERS), help="dataset name")
    generate_parser.add_argument("--num-keys", type=int, default=0, help="number of keys to generate")
    generate_parser.add_argument(
        "--seed", type=int, default=None, help="generator seed (default: the dataset's own)"
    )
    generate_parser.add_argument("--output", required=True, help="output JSONL path")
    return parser


# --------------------------------------------------------------------------- #
# sub-command implementations
# --------------------------------------------------------------------------- #
def _cmd_experiments(print_fn) -> int:
    rows = [
        (experiment.identifier, experiment.paper_artifact, experiment.description)
        for experiment in list_experiments()
    ]
    width = max(len(identifier) for identifier, _, _ in rows)
    artifact_width = max(len(artifact) for _, artifact, _ in rows)
    for identifier, artifact, description in rows:
        print_fn(f"{identifier:<{width}}  {artifact:<{artifact_width}}  {description}")
    return 0


def _cmd_run(arguments, print_fn) -> int:
    try:
        experiment = get_experiment(arguments.experiment)
    except KeyError as error:
        print_fn(str(error))
        return 2
    scale = get_scale(arguments.scale)
    print_fn(f"running {experiment.identifier} ({experiment.paper_artifact}) at scale {scale.name} ...")
    result = experiment.run(scale)
    rendered = result.render() if hasattr(result, "render") else repr(result)
    print_fn(rendered)
    if arguments.output:
        path = save_result(experiment.identifier, result, arguments.output, scale=scale.name)
        print_fn(f"saved result payload to {path}")
    return 0


def _cmd_datasets(arguments, print_fn) -> int:
    header = f"{'dataset':<20}{'keys':>8}{'avg |Sk|':>10}{'avg sess':>10}{'classes':>9}   paper: keys/|Sk|/sess/classes"
    print_fn(header)
    for name in sorted(DATASET_BUILDERS):
        dataset = build_dataset(name, num_keys=arguments.num_keys)
        stats = compute_statistics(dataset)
        paper = PAPER_STATISTICS[name]
        print_fn(
            f"{name:<20}{stats.num_keys:>8}{stats.avg_sequence_length:>10.1f}"
            f"{stats.avg_session_length:>10.1f}{stats.num_classes:>9}   "
            f"{paper.num_keys}/{paper.avg_sequence_length}/{paper.avg_session_length}/{paper.num_classes}"
        )
    return 0


def _cmd_generate(arguments, print_fn) -> int:
    dataset = build_dataset(arguments.dataset, num_keys=arguments.num_keys, seed=arguments.seed)
    written = save_dataset(dataset, arguments.output)
    print_fn(f"wrote {written} sequences of {arguments.dataset} to {arguments.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None, print_fn=print) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    if arguments.command is None:
        parser.print_help()
        return 1
    if arguments.command == "experiments":
        return _cmd_experiments(print_fn)
    if arguments.command == "run":
        return _cmd_run(arguments, print_fn)
    if arguments.command == "datasets":
        return _cmd_datasets(arguments, print_fn)
    if arguments.command == "generate":
        return _cmd_generate(arguments, print_fn)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())

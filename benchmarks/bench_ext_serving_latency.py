"""Extension bench: per-arrival serving latency, incremental vs full re-encode.

Not a paper artifact.  This measures the cost of the deployment story itself:
how long the online engine takes to process one arrival.  Two configurations
are compared at several window sizes:

* **full re-encode** (the seed behaviour): every evaluation re-encodes the
  entire window through the autograd ``Tensor`` path.  Because that is
  O(W²·d) per arrival, its per-arrival latency is *sampled* — the engine
  evaluates every ``stride`` arrivals and the latency of those evaluating
  arrivals (evenly spaced across window occupancies) estimates the
  evaluate-every-arrival deployment cost; non-evaluating offers are ~free.
* **incremental** (the KV-cached streaming encoder + no-grad fast path):
  every arrival is encoded incrementally in O(W·d) and evaluated.  Measured
  for both encoding schemes: the paper's ``absolute`` scheme (evictions
  force a batched O(W²) cache rebuild) and the eviction-stable ``rotary``
  scheme (ring buffer: evictions drop one row, the steady state stays
  O(W·d) per arrival, no rebuild ever happens).

Two regimes are reported per mode and window size: the *fill* phase
(append-only, every incremental engine's O(W) regime) and the *saturated*
phase (every arrival evicts — the heavy-traffic steady state, where only the
rotary ring keeps the O(W) cost).

Results are echoed as text and merged into ``BENCH_serving.json`` at the repo
root so future PRs can track the trajectory.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from benchmarks.conftest import RESULTS_DIR, bench_scale, write_bench_json

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import Item, ValueSpec
from repro.data.stream import StreamEvent
from repro.nn.tensor import no_grad
from repro.serving.engine import EngineConfig, OnlineClassificationEngine

SPEC = ValueSpec(field_names=("size", "direction"), cardinalities=(8, 2), session_field=1)

#: Window sizes per scale preset.  ``unit`` keeps the perf-smoke marker fast.
WINDOW_SIZES = {
    "unit": (64, 256),
    "bench": (64, 256, 1024),
    "paper": (64, 256, 1024),
}

NUM_KEYS = 16


def make_model(seed: int = 0, encoding: str = "absolute", window: int = 0) -> KVEC:
    config = KVECConfig(
        d_model=32,
        num_blocks=2,
        num_heads=2,
        ffn_hidden=64,
        d_state=48,
        dropout=0.0,
        encoding=encoding,
        # The absolute scheme's time table must cover the serving window
        # (engines reject window_items > max_time at construction).
        max_time=max(512, 2 * window),
        seed=seed,
    )
    return KVEC(SPEC, num_classes=4, config=config)


def make_stream(num_items: int, seed: int = 0) -> List[StreamEvent]:
    rng = np.random.default_rng(seed)
    events = []
    for index in range(num_items):
        key = f"flow-{rng.integers(NUM_KEYS)}"
        value = (int(rng.integers(8)), int(rng.integers(2)))
        events.append(StreamEvent(time=float(index), item=Item(key, value, float(index))))
    return events


class SeedPathModel:
    """Proxy forcing ``predict_tangle`` through the autograd layers.

    ``mode="full"`` engines now also benefit from the no-grad fast path; the
    benchmark's baseline is the *seed* cost model (full re-encode through the
    autograd ``Tensor`` layers), so the proxy classifies each tangle with the
    lockstep runner in greedy mode, under ``no_grad``.
    """

    def __init__(self, model: KVEC) -> None:
        self._model = model

    def __getattr__(self, name):
        if name == "make_incremental_state":
            # Hide the incremental API so an engine built on this proxy can
            # never silently take the fast path it exists to exclude.
            raise AttributeError(name)
        return getattr(self._model, name)

    def predict_tangle(self, tangle, halt_threshold: float = 0.5, max_items=None):
        with no_grad():
            results, _ = self._model.run_episodes(
                [tangle], mode="greedy", halt_threshold=halt_threshold, max_items=max_items
            )
        return results[0].records()


def _percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def _stats(latencies: List[float]) -> Dict[str, float]:
    mean = float(np.mean(latencies))
    return {
        "mean_ms": mean * 1e3,
        "p50_ms": _percentile_ms(latencies, 50),
        "p99_ms": _percentile_ms(latencies, 99),
        "throughput_items_per_sec": 1.0 / mean if mean > 0 else float("inf"),
    }


def measure_mode(
    model: KVEC,
    events: List[StreamEvent],
    window: int,
    mode: str,
    fill_items: int,
    stride: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Offer ``events`` and split per-arrival latencies into fill/saturated.

    For ``mode="full"`` only every ``stride``-th arrival evaluates (the
    sampled estimate of the evaluate-every-arrival cost); the other offers are
    excluded from the statistics.
    """
    reencode_every = stride if mode == "full" else 1
    engine = OnlineClassificationEngine(
        SeedPathModel(model) if mode == "full" else model,
        SPEC,
        # halt_threshold=1.0 keeps every key pending: the worst case, where no
        # early decision shrinks the evaluation work for either mode.
        EngineConfig(
            window_items=window,
            halt_threshold=1.0,
            reencode_every=reencode_every,
            mode=mode,
        ),
    )
    fill: List[float] = []
    saturated: List[float] = []
    for index, event in enumerate(events):
        start = time.perf_counter()
        engine.offer(event)
        elapsed = time.perf_counter() - start
        if mode == "full" and (index + 1) % stride != 0:
            continue
        (fill if index < fill_items else saturated).append(elapsed)
    result = {"fill": _stats(fill)}
    if saturated:
        result["saturated"] = _stats(saturated)
    return result


def run_latency_comparison(
    scale_name: str, emit_json: bool = True, seed: int = 0
) -> Dict[str, object]:
    """Deterministic latency sweep: models and streams derive from ``seed``."""
    windows = WINDOW_SIZES.get(scale_name, WINDOW_SIZES["bench"])
    per_window: Dict[int, Dict[str, object]] = {}
    for window in windows:
        model = make_model(seed=seed, window=window)
        rotary_model = make_model(seed=seed, encoding="rotary", window=window)
        extra = max(window // 8, 8)
        events = make_stream(window + extra, seed=seed + window)
        # ~16 sampled full-re-encode evaluations spread across occupancies.
        stride = max(window // 16, 1)
        full = measure_mode(model, events, window, "full", fill_items=window, stride=stride)
        incremental = measure_mode(model, events, window, "incremental", fill_items=window)
        rotary = measure_mode(rotary_model, events, window, "incremental", fill_items=window)

        def speedups(mode_stats):
            return {
                regime: full[regime]["mean_ms"] / mode_stats[regime]["mean_ms"]
                for regime in mode_stats
                if regime in full
            }

        per_window[window] = {
            "stream_items": len(events),
            "full_stride": stride,
            "full_reencode": full,
            "incremental": incremental,
            "incremental_rotary": rotary,
            "speedup_mean": speedups(incremental),
            "speedup_rotary_mean": speedups(rotary),
        }
    result = {"scale": scale_name, "windows": per_window}
    if emit_json:
        write_bench_json("serving_latency", result)
    return result


def render(result: Dict[str, object]) -> str:
    lines = ["Per-arrival serving latency: incremental KV cache vs full re-encode"]
    for window, stats in result["windows"].items():
        lines.append(f"  window={window} (stream={stats['stream_items']} items)")
        for mode_name in ("full_reencode", "incremental", "incremental_rotary"):
            for regime, regime_stats in stats[mode_name].items():
                lines.append(
                    f"    {mode_name:<18} {regime:<9} "
                    f"p50={regime_stats['p50_ms']:8.3f}ms  "
                    f"p99={regime_stats['p99_ms']:8.3f}ms  "
                    f"{regime_stats['throughput_items_per_sec']:10.1f} items/s"
                )
        for label, key in (("absolute", "speedup_mean"), ("rotary", "speedup_rotary_mean")):
            for regime, ratio in stats[key].items():
                lines.append(f"    speedup {label:<9} ({regime:<9}) = {ratio:8.1f}x")
    return "\n".join(lines)


def test_serving_latency_speedup(benchmark, scale_name):
    result = benchmark.pedantic(
        lambda: run_latency_comparison(scale_name), rounds=1, iterations=1
    )
    rendered = render(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ext_serving_latency_{bench_scale()}.txt").write_text(rendered + "\n")
    print("\n" + rendered)

    for window, stats in result["windows"].items():
        # The incremental O(W) fill path must beat the O(W²) autograd full
        # re-encode decisively; the margin grows with the window size.
        assert stats["speedup_mean"]["fill"] >= 2.0, window
        assert stats["speedup_rotary_mean"]["fill"] >= 2.0, window
        if window >= 1024:
            assert stats["speedup_mean"]["fill"] >= 5.0, window
            # The eviction-stable ring keeps the heavy-traffic steady state
            # O(W·d): the tentpole acceptance gate of the rotary-encoding PR.
            assert stats["speedup_rotary_mean"]["saturated"] >= 10.0, window

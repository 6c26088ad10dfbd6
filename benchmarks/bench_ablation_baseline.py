"""Ablation bench: REINFORCE with vs without the learned state-value baseline.

The paper uses REINFORCE *with baseline* to reduce the variance of the policy
gradient.  This bench quantifies that choice directly: it trains a KVEC model,
then measures the empirical variance of the per-step policy-gradient
coefficient (the return with and without baseline subtraction) over a set of
sampled episodes.  The baseline-corrected advantage should have lower variance.
"""

import numpy as np

from benchmarks.conftest import RESULTS_DIR, bench_scale

from repro.core.model import KVEC
from repro.core.trainer import KVECTrainer
from repro.experiments.presets import get_scale
from repro.experiments.workloads import dataset_splits


def run_baseline_variance_study(scale_name: str):
    scale = get_scale(scale_name)
    splits = dataset_splits("Traffic-FG", scale)
    model = KVEC(splits.spec, splits.num_classes, scale.kvec)
    trainer = KVECTrainer(model)
    trainer.train(splits.train, epochs=max(2, scale.kvec.epochs // 3))

    raw_returns = []
    advantages = []
    rng = np.random.default_rng(0)
    for tangle in splits.train[: min(len(splits.train), 10)]:
        (result,), _ = model.run_episodes([tangle], mode="sample", rngs=[rng])
        for episode in result.episodes.values():
            if not episode.states:
                continue
            reward = 1.0 if episode.predicted == episode.label else -1.0
            num_observations = episode.num_observations
            for step in range(num_observations):
                observed_return = reward * (num_observations - step)
                baseline_value = model.baseline.value(episode.states[step].detach())
                raw_returns.append(observed_return)
                advantages.append(observed_return - baseline_value)
    return {
        "raw_return_variance": float(np.var(raw_returns)),
        "advantage_variance": float(np.var(advantages)),
        "num_steps": len(raw_returns),
    }


def test_baseline_reduces_gradient_variance(benchmark, scale_name):
    stats = benchmark.pedantic(lambda: run_baseline_variance_study(scale_name), rounds=1, iterations=1)
    rendered = (
        "REINFORCE baseline ablation (Traffic-FG analogue)\n"
        f"  steps sampled:              {stats['num_steps']}\n"
        f"  variance of raw returns:    {stats['raw_return_variance']:.3f}\n"
        f"  variance of advantages:     {stats['advantage_variance']:.3f}\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"ablation_baseline_{bench_scale()}.txt").write_text(rendered)
    print("\n" + rendered)
    assert stats["num_steps"] > 0
    # The learned baseline must not increase the policy-gradient variance.
    assert stats["advantage_variance"] <= stats["raw_return_variance"] * 1.5

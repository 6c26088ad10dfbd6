"""Joint training of KVRL and ECTL (Algorithm 1 of the paper).

For every tangled key-value sequence in the training set an *episode* is
generated by the current halting policy.  Three losses are combined:

* ``l1`` — cross entropy of the classifier at each sequence's halting state,
* ``l2`` — REINFORCE-with-baseline surrogate for the halting policy, where a
  sequence classified correctly gives reward ``+1`` at every step of its
  episode and ``-1`` otherwise,
* ``l3`` — an earliness penalty: the negative log halting probability summed
  over every observation, pushing the policy towards earlier halting.

The total loss is ``l1 + alpha * l2 + beta * l3``.  The baseline value
network's parameters ``θb`` are updated independently by regressing the
observed returns (mean squared error), exactly as Algorithm 1 prescribes.

Every minibatch runs its episodes in lockstep through
:mod:`repro.core.batched_episodes`; there is no per-sample training path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import KVECConfig
from repro.core.ectl import ACTION_HALT
from repro.core.model import KVEC, EpisodeResult
from repro.data.batching import EpisodeBatcher
from repro.data.items import TangledSequence
from repro.nn import functional as F
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor


@dataclass
class EpochStats:
    """Aggregated statistics of one training epoch."""

    epoch: int
    loss: float
    classification_loss: float
    policy_loss: float
    earliness_loss: float
    baseline_loss: float
    accuracy: float
    earliness: float
    duration_seconds: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "epoch": self.epoch,
            "loss": self.loss,
            "classification_loss": self.classification_loss,
            "policy_loss": self.policy_loss,
            "earliness_loss": self.earliness_loss,
            "baseline_loss": self.baseline_loss,
            "accuracy": self.accuracy,
            "earliness": self.earliness,
            "duration_seconds": self.duration_seconds,
        }


@dataclass
class TrainingHistory:
    """Per-epoch statistics collected by the trainer."""

    epochs: List[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    def final(self) -> Optional[EpochStats]:
        return self.epochs[-1] if self.epochs else None

    def series(self, name: str) -> List[float]:
        return [getattr(stats, name) for stats in self.epochs]

    def __len__(self) -> int:
        return len(self.epochs)


class KVECTrainer:
    """Implements the joint optimisation of Algorithm 1."""

    def __init__(
        self,
        model: KVEC,
        config: Optional[KVECConfig] = None,
        batched: bool = True,
    ) -> None:
        if batched is not True:
            raise ValueError(
                f"batched={batched!r}: the per-sample training path was removed; "
                "every minibatch trains through the lockstep episode runner"
            )
        self.model = model
        self.config = config or model.config
        self.optimizer = Adam(model.trainable_parameters(), lr=self.config.learning_rate)
        self.baseline_optimizer = Adam(
            model.baseline.parameters(), lr=self.config.baseline_learning_rate
        )
        self._rng = np.random.default_rng(self.config.seed + 17)

    def _episode_rngs(self, count: int) -> List[np.random.Generator]:
        """One independent sampling RNG per tangle of a minibatch.

        Derived from the master stream (one draw per tangle, in batch
        order), so a tangle's Halt/Wait draws do not depend on how the
        minibatch is grouped or on which tangles share it.
        """
        return [
            np.random.default_rng(int(self._rng.integers(2**63))) for _ in range(count)
        ]

    # ------------------------------------------------------------------ #
    # batched (lockstep) loss for a whole minibatch
    # ------------------------------------------------------------------ #

    # Padded (B, T, T) attention-score tensors are materialised per group, so
    # capping a group's score footprint keeps the batched arrays cache-resident
    # on long tangles, and the length-ratio bound caps padding waste when the
    # minibatch mixes short and long tangles.  Within a group everything still
    # runs as single cross-sample GEMMs.
    _BUCKET_SCORE_BUDGET = 300_000
    _BUCKET_LENGTH_RATIO = 0.6

    def _length_buckets(self, batch: Sequence[TangledSequence]) -> List[List[int]]:
        """Split minibatch indices into length-homogeneous groups.

        Indices are sorted by tangle length (descending) and greedily grouped;
        a group is closed when adding the next tangle would either pad it by
        more than ``1 - _BUCKET_LENGTH_RATIO`` or push the group's padded
        score-matrix footprint past ``_BUCKET_SCORE_BUDGET`` elements.
        """
        order = sorted(range(len(batch)), key=lambda i: len(batch[i]), reverse=True)
        groups = [[order[0]]]
        for idx in order[1:]:
            t_max = len(batch[groups[-1][0]])
            footprint = (len(groups[-1]) + 1) * t_max * t_max
            if (
                len(batch[idx]) < self._BUCKET_LENGTH_RATIO * t_max
                or footprint > self._BUCKET_SCORE_BUDGET
            ):
                groups.append([idx])
            else:
                groups[-1].append(idx)
        return groups

    def batched_episode_losses(
        self, batch: Sequence[TangledSequence], rngs: Sequence[np.random.Generator]
    ):
        """Losses for a whole minibatch via the lockstep episode runner.

        The minibatch is split into length-homogeneous groups (see
        :meth:`_length_buckets`), each group runs all its episodes through one
        ``run_episodes`` call (one GEMM per projection/FFN/gate per arrival
        round), and the group losses — all minibatch *sums*, hence additive —
        are added together.  ``rngs`` holds one sampling generator per
        tangle (see :meth:`_episode_rngs`).

        Returns ``(total, baseline_loss, results, parts)`` where ``total``,
        ``baseline_loss`` and the parts are *sums* over the minibatch;
        ``baseline_loss`` is the baseline network's MSE, built on detached
        states so its gradient does not reach the representation parameters.
        """
        if not batch:
            raise ValueError("batched_episode_losses requires at least one tangle")
        if len(rngs) != len(batch):
            raise ValueError(
                f"batched_episode_losses needs one RNG per tangle: got {len(rngs)} "
                f"RNGs for {len(batch)} tangles"
            )
        groups = self._length_buckets(batch)
        results: List[Optional[EpisodeResult]] = [None] * len(batch)
        total: Optional[Tensor] = None
        baseline_loss: Optional[Tensor] = None
        parts = {
            "classification_loss": 0.0,
            "policy_loss": 0.0,
            "earliness_loss": 0.0,
            "baseline_loss": 0.0,
        }
        for group in groups:
            group_results, tail = self.model.run_episodes(
                [batch[i] for i in group],
                mode="sample",
                rngs=[rngs[i] for i in group],
            )
            for i, result in zip(group, group_results):
                results[i] = result
            group_total, group_baseline, group_parts = self._tail_losses(tail)
            total = group_total if total is None else total + group_total
            baseline_loss = (
                group_baseline if baseline_loss is None else baseline_loss + group_baseline
            )
            for name in parts:
                parts[name] += group_parts[name]
        return total, baseline_loss, results, parts

    def _tail_losses(self, tail):
        """Loss terms of one lockstep-runner group, from its step tail."""
        # l1: cross entropy at every episode's halting state, one batched
        # softmax over the (num_episodes, num_classes) logits.
        classification_loss = F.cross_entropy(
            tail.class_logits, tail.episode_labels, reduction="sum"
        )

        # Rewards/returns (Algorithm 1, lines 14-17), vectorised: step s of
        # an episode with n observations has return reward * (n - s).
        rewards = np.where(tail.episode_predicted == tail.episode_labels, 1.0, -1.0)
        returns = rewards[tail.step_episode] * (
            tail.episode_num_obs[tail.step_episode] - tail.step_obs_index
        )
        baseline_estimates = self.model.baseline(Tensor(tail.states_data))
        baseline_loss = ((baseline_estimates - Tensor(returns)) ** 2).sum()
        advantages = returns - baseline_estimates.data

        # l2: the chosen-action log-prob of every step times -advantage.
        halt_mask = (tail.step_actions == ACTION_HALT).astype(np.float64)
        chosen = tail.log_halt * Tensor(halt_mask) + tail.log_wait * Tensor(1.0 - halt_mask)
        policy_loss = (chosen * (-advantages)).sum()
        # l3: encourage halting at every step (always log P(Halt | s)).
        earliness_loss = -(tail.log_halt.sum())

        total = (
            classification_loss
            + policy_loss * self.config.alpha
            + earliness_loss * self.config.beta
        )
        return total, baseline_loss, {
            "classification_loss": float(classification_loss.data),
            "policy_loss": float(policy_loss.data),
            "earliness_loss": float(earliness_loss.data),
            "baseline_loss": float(baseline_loss.data),
        }

    # ------------------------------------------------------------------ #
    # full training loop
    # ------------------------------------------------------------------ #
    def train(
        self,
        train_tangles: Sequence[TangledSequence],
        epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the model for ``epochs`` epochs over ``train_tangles``.

        ``epochs=None`` trains ``config.epochs`` epochs; any other value
        must be positive.
        """
        if not train_tangles:
            raise ValueError("training requires at least one tangled sequence")
        if epochs is None:
            epochs = self.config.epochs
        elif epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        batcher = EpisodeBatcher(
            train_tangles,
            batch_size=self.config.batch_size,
            shuffle=True,
            rng=np.random.default_rng(self.config.seed + 29),
        )
        history = TrainingHistory()
        self.model.train()
        for epoch in range(1, epochs + 1):
            stats = self._train_epoch(epoch, batcher)
            history.append(stats)
            if verbose:
                print(
                    f"epoch {epoch:3d}  loss={stats.loss:8.3f}  acc={stats.accuracy:.3f}  "
                    f"earliness={stats.earliness:.3f}"
                )
        return history

    def _train_epoch(self, epoch: int, batcher: EpisodeBatcher) -> EpochStats:
        start = time.perf_counter()
        totals = {
            "loss": 0.0,
            "classification_loss": 0.0,
            "policy_loss": 0.0,
            "earliness_loss": 0.0,
            "baseline_loss": 0.0,
        }
        correct = 0
        total_keys = 0
        earliness_sum = 0.0
        num_tangles = 0

        for batch in batcher.epoch():
            self.optimizer.zero_grad()
            self.baseline_optimizer.zero_grad()
            scale = 1.0 / len(batch)
            total, baseline_loss, results, parts = self.batched_episode_losses(
                batch, self._episode_rngs(len(batch))
            )
            (total * scale).backward()
            (baseline_loss * scale).backward()
            totals["loss"] += float(total.data)
            for name in ("classification_loss", "policy_loss", "earliness_loss", "baseline_loss"):
                totals[name] += parts[name]
            num_tangles += len(batch)
            for result in results:
                for record in result.records():
                    total_keys += 1
                    correct += int(record.correct)
                    earliness_sum += record.earliness
            if self.config.grad_clip > 0:
                clip_grad_norm(self.model.trainable_parameters(), self.config.grad_clip)
                clip_grad_norm(self.model.baseline.parameters(), self.config.grad_clip)
            self.optimizer.step()
            self.baseline_optimizer.step()

        duration = time.perf_counter() - start
        denominator = max(num_tangles, 1)
        return EpochStats(
            epoch=epoch,
            loss=totals["loss"] / denominator,
            classification_loss=totals["classification_loss"] / denominator,
            policy_loss=totals["policy_loss"] / denominator,
            earliness_loss=totals["earliness_loss"] / denominator,
            baseline_loss=totals["baseline_loss"] / denominator,
            accuracy=correct / max(total_keys, 1),
            earliness=earliness_sum / max(total_keys, 1),
            duration_seconds=duration,
        )

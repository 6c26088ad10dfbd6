"""Shared training logic for RL-halting baselines (EARLIEST, SRN-EARLIEST).

Both baselines combine a per-sequence encoder with the same components KVEC's
ECTL uses — a halting policy, a REINFORCE baseline and a linear classifier —
but operate on each key-value sequence independently.  Their single trade-off
hyperparameter ``lambda`` (Table II) weighs the time penalty against the
classification and policy losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.common import EarlyClassifier, tangles_to_sequences
from repro.core.classifier import SequenceClassifier
from repro.core.ectl import ACTION_HALT, ACTION_WAIT, BaselineValue, HaltingPolicy
from repro.core.model import PredictionRecord
from repro.data.items import KeyValueSequence, TangledSequence, ValueSpec
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad


@dataclass
class RLBaselineConfig:
    """Hyperparameters shared by the RL-halting baselines."""

    d_model: int = 32
    num_blocks: int = 2
    num_heads: int = 1
    dropout: float = 0.0
    lam: float = 0.001
    learning_rate: float = 1e-3
    baseline_learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 16
    grad_clip: float = 5.0
    halt_threshold: float = 0.5
    seed: int = 0


class RLHaltingClassifier(EarlyClassifier, Module):
    """Encoder-agnostic early classifier with a REINFORCE halting policy."""

    name = "rl-halting"

    def __init__(
        self,
        encoder: Module,
        num_classes: int,
        config: Optional[RLBaselineConfig] = None,
    ) -> None:
        Module.__init__(self)
        self.config = config or RLBaselineConfig()
        self.encoder = encoder
        self.num_classes = num_classes
        state_dim = int(getattr(encoder, "d_state"))
        rng = np.random.default_rng(self.config.seed)
        self.policy = HaltingPolicy(state_dim, rng=rng)
        self.baseline = BaselineValue(state_dim, rng=rng)
        self.classifier = SequenceClassifier(state_dim, num_classes, rng=rng)
        self._action_rng = np.random.default_rng(self.config.seed + 1)

    # ------------------------------------------------------------------ #
    # episode generation over one key-value sequence
    # ------------------------------------------------------------------ #
    def run_sequence(
        self,
        sequence: KeyValueSequence,
        mode: str = "sample",
        halt_threshold: Optional[float] = None,
    ):
        """Run the halting policy over one sequence.

        Returns a dict with the per-step states, actions, log-probs, the halt
        position (1-based), the classification logits and the prediction.
        """
        threshold = self.config.halt_threshold if halt_threshold is None else halt_threshold
        states_matrix = self.encoder(sequence)
        length = states_matrix.shape[0]

        states: List[Tensor] = []
        log_probs: List[Tensor] = []
        actions: List[int] = []
        halted_by_policy = False
        halt_step = length
        for step in range(length):
            state = states_matrix[step]
            states.append(state)
            probability = self.policy(state)
            if mode == "sample":
                action = ACTION_HALT if self._action_rng.random() < float(probability.data) else ACTION_WAIT
            else:
                action = ACTION_HALT if float(probability.data) >= threshold else ACTION_WAIT
            actions.append(action)
            log_probs.append(self.policy.log_prob(state, action))
            if action == ACTION_HALT:
                halted_by_policy = True
                halt_step = step + 1
                break

        final_state = states[-1]
        logits = self.classifier(final_state)
        probabilities = F.softmax(logits, axis=-1).data
        return {
            "states": states,
            "log_probs": log_probs,
            "actions": actions,
            "halt_step": halt_step,
            "halted_by_policy": halted_by_policy,
            "logits": logits,
            "predicted": int(np.argmax(probabilities)),
            "confidence": float(np.max(probabilities)),
        }

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, train_tangles: Sequence[TangledSequence], verbose: bool = False) -> "RLHaltingClassifier":
        sequences = tangles_to_sequences(train_tangles)
        if not sequences:
            raise ValueError("no training sequences")
        optimizer = Adam(self._policy_parameters(), lr=self.config.learning_rate)
        baseline_optimizer = Adam(self.baseline.parameters(), lr=self.config.baseline_learning_rate)
        shuffle_rng = np.random.default_rng(self.config.seed + 3)

        self.train()
        for epoch in range(1, self.config.epochs + 1):
            order = list(range(len(sequences)))
            shuffle_rng.shuffle(order)
            epoch_correct = 0
            epoch_loss = 0.0
            for start in range(0, len(order), self.config.batch_size):
                batch = [sequences[i] for i in order[start : start + self.config.batch_size]]
                optimizer.zero_grad()
                baseline_optimizer.zero_grad()
                for sequence in batch:
                    loss, baseline_loss, outcome = self._sequence_losses(sequence)
                    scale = 1.0 / len(batch)
                    (loss * scale).backward()
                    (baseline_loss * scale).backward()
                    epoch_loss += float(loss.data)
                    epoch_correct += int(outcome["predicted"] == sequence.label)
                if self.config.grad_clip > 0:
                    clip_grad_norm(self._policy_parameters(), self.config.grad_clip)
                    clip_grad_norm(self.baseline.parameters(), self.config.grad_clip)
                optimizer.step()
                baseline_optimizer.step()
            if verbose:
                accuracy = epoch_correct / len(sequences)
                print(f"[{self.name}] epoch {epoch:3d}  loss={epoch_loss / len(sequences):8.3f}  acc={accuracy:.3f}")
        return self

    def _sequence_losses(self, sequence: KeyValueSequence):
        outcome = self.run_sequence(sequence, mode="sample")
        logits = outcome["logits"].reshape(1, self.num_classes)
        classification_loss = F.cross_entropy(logits, [sequence.label], reduction="sum")

        reward = 1.0 if outcome["predicted"] == sequence.label else -1.0
        policy_terms: List[Tensor] = []
        earliness_terms: List[Tensor] = []
        baseline_terms: List[Tensor] = []
        num_steps = len(outcome["states"])
        for step in range(num_steps):
            steps_remaining = num_steps - step
            observed_return = reward * steps_remaining
            detached = outcome["states"][step].detach()
            baseline_estimate = self.baseline(detached)
            baseline_terms.append((baseline_estimate - observed_return) ** 2)
            advantage = observed_return - float(baseline_estimate.data)
            policy_terms.append(outcome["log_probs"][step] * (-advantage))
            if outcome["actions"][step] == ACTION_HALT:
                earliness_terms.append(-outcome["log_probs"][step])
            else:
                earliness_terms.append(-self.policy.log_prob(outcome["states"][step], ACTION_HALT))

        policy_loss = _add_terms(policy_terms)
        earliness_loss = _add_terms(earliness_terms)
        baseline_loss = _add_terms(baseline_terms)
        total = classification_loss + policy_loss * 0.1 + earliness_loss * self.config.lam
        return total, baseline_loss, outcome

    def _policy_parameters(self):
        baseline_ids = {id(p) for p in self.baseline.parameters()}
        return [p for p in self.parameters() if id(p) not in baseline_ids]

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_tangle(self, tangle: TangledSequence) -> List[PredictionRecord]:
        records: List[PredictionRecord] = []
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for key, sequence in tangle.per_key_sequences().items():
                    if not len(sequence):
                        continue
                    outcome = self.run_sequence(sequence, mode="greedy")
                    records.append(
                        PredictionRecord(
                            key=key,
                            predicted=outcome["predicted"],
                            label=tangle.label_of(key),
                            halt_observation=outcome["halt_step"],
                            sequence_length=len(sequence),
                            confidence=outcome["confidence"],
                            halted_by_policy=outcome["halted_by_policy"],
                        )
                    )
        finally:
            self.train(was_training)
        return records


def _add_terms(terms: List[Tensor]) -> Tensor:
    if not terms:
        return Tensor(0.0)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total

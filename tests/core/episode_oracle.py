"""Per-tangle, per-arrival reference for the lockstep episode runner.

Training runs through :meth:`repro.core.trainer.KVECTrainer.batched_episode_losses`,
which executes a whole minibatch in lockstep
(:mod:`repro.core.batched_episodes`).  This module keeps the loop that runner
replaced as the parity suite's reference, and is not collected by pytest:

* one tangle at a time, encoded through ``encoder.forward_batch`` at B=1;
* one arrival at a time through a composite fusion step of its own (for
  the gated fusion, the LSTM chain of ``tests/nn/test_fused_nodes.py``
  that the one-node cell step replaced), the halting policy's ``forward``
  and ``log_prob``, and the classifier;
* the per-tangle loss assembly of Algorithm 1.

The mask, the embedding coordinates and the rotary delta/same inputs are
the full-length references of ``tests/core/input_oracle.py`` and the
phases come from ``rotary_phases``, independently of the runner's own
per-chunk construction (``KVEC.encoder_inputs``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

import numpy as np

from repro.core.ectl import ACTION_HALT, ACTION_WAIT
from repro.core.fusion import GatedFusion, MeanFusion
from repro.core.model import EpisodeResult, KeyEpisode
from repro.nn import functional as F
from repro.nn.attention import rotary_phases
from repro.nn.tensor import Tensor
from tests.core.input_oracle import (
    reference_coordinates,
    reference_correlation_structure,
    reference_rank_inputs,
)
from tests.nn.test_fused_nodes import composite_lstm_step

LOSS_PARTS = ("classification_loss", "policy_loss", "earliness_loss", "baseline_loss")


def encode(model, tangle):
    """The ``(T, d_model)`` one-shot encode of ``tangle``."""
    length = len(tangle)
    d_model = model.config.d_model
    structure = reference_correlation_structure(
        tangle,
        use_key_correlation=model.config.use_key_correlation,
        use_value_correlation=model.config.use_value_correlation,
    )
    phases = delta = same = None
    if model.config.encoding == "rotary" and model.config.use_time_embeddings:
        attention = model.encoder.blocks[0].attention
        phases = rotary_phases(np.arange(length, dtype=np.float64), attention.d_head)
        if attention.rel_bias is not None:
            delta, same = reference_rank_inputs(
                tangle, length, attention.max_relative_positions
            )
            delta, same = delta[None], same[None]
    embedded = model.input_embedding.embed_rows(
        *reference_coordinates(model.input_embedding, tangle, length)
    )
    encoded = model.encoder.forward_batch(
        embedded.reshape(1, length, d_model),
        mask=structure.mask[None],
        phases=phases,
        delta=delta,
        same=same,
    )
    return encoded.reshape(length, d_model)


def fuse(fusion, state, x):
    """One stream's composite fusion step on a ``(d_model,)`` row.

    ``state`` is the tuple the previous step returned, or ``None`` for the
    initial state; returns ``(representation, state)``.
    """
    if isinstance(fusion, GatedFusion):
        zeros = Tensor(np.zeros(fusion.d_state))
        hidden, memory = composite_lstm_step(fusion.cell, x, *(state or (zeros, zeros)))
        return hidden, (hidden, memory)
    if isinstance(fusion, MeanFusion):
        total, count = state or (Tensor(np.zeros(fusion.d_model)), Tensor(np.zeros(1)))
        total, count = total + x, count + 1.0
        return total / count, (total, count)
    return x, (x,)


def run_episode(model, tangle, rng: np.random.Generator):
    """Sample one tangle's episodes arrival by arrival.

    Returns ``(result, logits, log_probs)``: the :class:`EpisodeResult`,
    and per key the classifier logits at the decision state and the
    chosen-action log-probability of every step.
    """
    representations = encode(model, tangle)
    episodes: Dict[Hashable, KeyEpisode] = {}
    for item in tangle.items:
        if item.key not in episodes:
            episodes[item.key] = KeyEpisode(
                key=item.key,
                label=tangle.label_of(item.key),
                sequence_length=tangle.sequence_length(item.key),
            )
    fusion_states: Dict[Hashable, tuple] = {}
    logits: Dict[Hashable, Tensor] = {}
    log_probs: Dict[Hashable, List[Tensor]] = {key: [] for key in episodes}

    def classify(episode: KeyEpisode, representation: Tensor, halted_by_policy: bool) -> None:
        episode.halted = True
        episode.halted_by_policy = halted_by_policy
        logits[episode.key] = model.classifier(representation)
        probabilities = F.softmax_array(logits[episode.key].data)
        episode.predicted = int(np.argmax(probabilities))
        episode.confidence = float(np.max(probabilities))

    for index, item in enumerate(tangle.items):
        episode = episodes[item.key]
        if episode.halted:
            continue
        representation, fusion_states[item.key] = fuse(
            model.fusion, fusion_states.get(item.key), representations[index]
        )
        episode.states.append(representation)
        halt_probability = float(model.policy(representation).data)
        action = ACTION_HALT if rng.random() < halt_probability else ACTION_WAIT
        episode.actions.append(action)
        log_probs[item.key].append(model.policy.log_prob(representation, action))
        if action == ACTION_HALT:
            classify(episode, representation, halted_by_policy=True)

    # Sequences that never halted are classified from their final state.
    for episode in episodes.values():
        if not episode.halted:
            classify(episode, episode.states[-1], halted_by_policy=False)
    return EpisodeResult(episodes=episodes), logits, log_probs


def tangle_losses(model, config, tangle, rng: np.random.Generator):
    """``(total, baseline_loss, result, parts)`` for one tangle's episodes."""
    result, logits, log_probs = run_episode(model, tangle, rng)
    classification_terms: List[Tensor] = []
    earliness_terms: List[Tensor] = []
    step_states: List[np.ndarray] = []
    step_returns: List[float] = []
    step_log_probs: List[Tensor] = []
    for key, episode in result.episodes.items():
        # l1: cross entropy at the decision state.
        classification_terms.append(
            F.cross_entropy(
                logits[key].reshape(1, model.num_classes), [episode.label], reduction="sum"
            )
        )
        # +1 at every step when the prediction is correct, -1 otherwise.
        reward = 1.0 if episode.predicted == episode.label else -1.0
        num_observations = episode.num_observations
        for step in range(num_observations):
            step_returns.append(reward * (num_observations - step))
            step_states.append(episode.states[step].data)
            log_prob = log_probs[key][step]
            step_log_probs.append(log_prob)
            # l3: log P(Halt | s) at every step.
            halt_log_prob = (
                log_prob
                if episode.actions[step] == ACTION_HALT
                else model.policy.log_prob(episode.states[step], ACTION_HALT)
            )
            earliness_terms.append(-halt_log_prob)

    # The baseline regresses the returns on detached states.
    returns = np.asarray(step_returns, dtype=np.float64)
    estimates = model.baseline(Tensor(np.stack(step_states)))
    baseline_loss = ((estimates - Tensor(returns)) ** 2).sum()
    advantages = returns - estimates.data
    policy_loss = (Tensor.stack(step_log_probs) * (-advantages)).sum()
    classification_loss = Tensor.stack(classification_terms).sum()
    earliness_loss = Tensor.stack(earliness_terms).sum()
    total = classification_loss + policy_loss * config.alpha + earliness_loss * config.beta
    parts = {
        "classification_loss": float(classification_loss.data),
        "policy_loss": float(policy_loss.data),
        "earliness_loss": float(earliness_loss.data),
        "baseline_loss": float(baseline_loss.data),
    }
    return total, baseline_loss, result, parts


def episode_losses(trainer, batch: Sequence, rngs: Sequence[np.random.Generator]):
    """Per-tangle twin of ``trainer.batched_episode_losses(batch, rngs)``.

    Returns ``(total, baseline_loss, results, parts)`` where ``total``,
    ``baseline_loss`` and the parts are sums over the minibatch.
    """
    total = baseline_loss = None
    results: List[EpisodeResult] = []
    parts = dict.fromkeys(LOSS_PARTS, 0.0)
    for tangle, rng in zip(batch, rngs):
        tangle_total, tangle_baseline, result, tangle_parts = tangle_losses(
            trainer.model, trainer.config, tangle, rng
        )
        total = tangle_total if total is None else total + tangle_total
        baseline_loss = (
            tangle_baseline if baseline_loss is None else baseline_loss + tangle_baseline
        )
        results.append(result)
        for name in LOSS_PARTS:
            parts[name] += tangle_parts[name]
    return total, baseline_loss, results, parts

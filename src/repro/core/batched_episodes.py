"""Cross-sample batched episode execution: the training path.

Algorithm 1 trains on sampled halting episodes.  This module executes a
minibatch of B tangles together, and every training step runs through it
(:meth:`repro.core.trainer.KVECTrainer.batched_episode_losses`):

* **Encode** — the encode is action-independent (the strictly causal mask
  means row ``t`` of a full-length pass equals what a streaming system would
  compute after ``t`` arrivals), so all ``B`` samples are padded to a common
  length and encoded together: every projection, FFN and attention product
  is a single batched GEMM
  (:meth:`repro.core.kvrl.KVRLEncoder.forward_batch`) instead of ``B``
  per-sample calls.  Rows are encoded in causal chunks, on demand: the
  first chunk holds rows ``[0, 16)``, and whenever the loop below reaches
  a row not encoded yet, the next chunk doubles the encoded length (capped
  at the padded length).  A chunk's queries attend to the keys and values
  cached from the earlier chunks.  Each chunk's inputs — coordinates,
  correlation mask and, under rotary, phases and relative-bias rows — are
  built for its rows only by :meth:`~repro.core.model.KVEC.encoder_inputs`,
  the build every offline encode shares, from per-tangle column tables
  (:class:`~repro.core.correlation.TangleColumns`) that a forward pass
  extends as far as the chunk reaches.  The losses read each episode only
  up to its halt, and rows after the last halt cannot reach them through
  the causal mask, so rows the loop never reaches are never tabled,
  embedded, encoded or backpropagated.
* **Fusion/policy loop** — actions do matter here, so arrivals are walked
  round by round, but all ``B`` samples advance in lockstep.  A round
  records four graph nodes whatever its width: one gather of the step-``t``
  encoded rows of every episode still running, one gather of their
  previous fusion states (:func:`~repro.nn.functional.gather_rows`), one
  fusion step (:meth:`~repro.core.fusion.GatedFusion.step`, a single LSTM
  cell node for the gated fusion) and one halting-head node giving each row
  ``[p, log p, log(1 − p)]`` (:meth:`~repro.core.ectl.HaltingPolicy.head`).
  Each round's new states stay one stacked block (gated ``[h | c]``, mean
  ``[sum | count]``, last ``[x]``), and an episode's state is a reference to
  a row of it; a zero row stands for the initial state of every fusion
  kind.  After the loop, one gather reads every episode's decision
  representation for the classifier and one concatenation the round heads
  for the losses.  The loop exits as soon as every episode has halted —
  rounds whose arrivals all belong to halted keys cost nothing.

Parity contract
---------------
All cross-sample batching is pure math-level stacking of independent
streams, so each tangle's numerics match running it alone, one arrival at
a time, up to BLAS summation-order noise (~1e-12).  That per-tangle,
per-arrival loop is kept as a reference in the test suite
(``tests/core/episode_oracle.py``), which pins losses and gradients within
1e-8 of it.  Each tangle draws its Halt/Wait coin flips from its own
generator, so the sampled action sequences match the reference exactly.
Exact parity additionally requires ``dropout == 0``: the two layouts draw
dropout masks in different shapes.

Ragged episode lengths are handled by an *active-episode mask*: padding
rows of the stacked encode keep a visible diagonal (finite softmax) but are
never gathered by the fusion loop, and a sample whose arrivals are
exhausted — or whose episodes have all halted — simply stops contributing
rounds.  No sample ever waits for another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.correlation import TangleColumns
from repro.core.ectl import ACTION_HALT, ACTION_WAIT
from repro.core.model import EncoderInputs, EpisodeResult, KeyEpisode
from repro.data.items import TangledSequence
from repro.nn.functional import gather_rows, softmax_array
from repro.nn.tensor import Tensor

__all__ = ["BatchedStepTail", "run_episodes_batched"]

#: Rows in the first causal chunk of the encode; each later chunk doubles
#: the encoded length, capped at the padded length.  Swept on one epoch of
#: the ``train_batched`` workload's training (320 tangles, B=16, 2-core
#: x86-64 box, one BLAS thread), as the median ratio to one full-length
#: encode per group over 8 alternating pairs: first chunk 16 then doubling
#: 0.50x, first 8 0.58x, first 32 0.58x, fixed 16-row chunks 0.50x, 16
#: then the full length 0.57x, 16 then x4 0.56x.  With a halting head that
#: never halts (6 pairs): 16-doubling 1.01x, 16 then full 1.00x, x4 1.05x.
#: Doubling keeps the number of chunks logarithmic in the length.
_FIRST_CHUNK = 16


@dataclass
class BatchedStepTail:
    """Flat, round-major view of a minibatch's episodes for loss assembly.

    The lockstep runner emits one ``(B_r, 3)`` halting-head node per round;
    here they are concatenated into minibatch-wide ``log_halt`` /
    ``log_wait`` vectors so the trainer can build the REINFORCE and
    earliness losses with a handful of graph nodes (one stacked log-prob
    vector dotted against the advantage vector) instead of per-step scalar
    chains.

    Step arrays are parallel (one entry per observed step, round-major);
    episode arrays are parallel (one entry per key-value sequence, ordered
    tangle-major then by first appearance).
    """

    log_halt: Tensor
    log_wait: Tensor
    step_actions: np.ndarray
    step_episode: np.ndarray
    step_obs_index: np.ndarray
    states_data: np.ndarray
    class_logits: Tensor
    episode_labels: np.ndarray
    episode_tangles: np.ndarray
    episode_predicted: np.ndarray
    episode_num_obs: np.ndarray

    @property
    def num_steps(self) -> int:
        return int(self.step_actions.shape[0])

    @property
    def num_episodes(self) -> int:
        return int(self.episode_labels.shape[0])


def run_episodes_batched(
    model,
    tangles: Sequence[TangledSequence],
    mode: str = "sample",
    halt_threshold: float = 0.5,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    max_items: Optional[int] = None,
) -> Tuple[List[EpisodeResult], BatchedStepTail]:
    """Run one episode per tangle, executing the whole minibatch together.

    Parameters
    ----------
    model:
        The :class:`~repro.core.model.KVEC` model (training or eval mode).
    tangles:
        The minibatch of tangled sequences.
    mode:
        ``"sample"`` draws Halt/Wait per episode from ``rngs`` (training);
        ``"greedy"`` halts at ``halt_threshold`` (evaluation cross-checks).
    rngs:
        One independent generator per tangle (required in ``"sample"``
        mode), drawn once per observed step in arrival order.
    max_items:
        Optional per-tangle truncation to the first ``max_items`` items.

    Returns
    -------
    (results, tail)
        ``results`` holds one :class:`EpisodeResult` per tangle with
        every episode's actions, prediction and record; its states are
        stored *detached* — the differentiable quantities live in ``tail``.
    """
    if mode not in ("sample", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if not tangles:
        raise ValueError("run_episodes_batched requires at least one tangle")
    if mode == "sample":
        if rngs is None or len(rngs) != len(tangles):
            raise ValueError("sample mode requires one RNG per tangle")

    batch = len(tangles)
    lengths = [tangle.prefix_length(max_items) for tangle in tangles]
    if any(length == 0 for length in lengths):
        raise ValueError("cannot run an episode on an empty tangled sequence")
    t_max = max(lengths)
    padded = _PaddedMinibatch(model, tangles, lengths)

    # Episodes in tangle-major, first-appearance order; each gets a global id.
    episodes_per: List[dict] = []
    episode_index: List[Tuple[int, object, KeyEpisode]] = []
    gid = {}
    undecided = [0] * batch
    for i, (tangle, length) in enumerate(zip(tangles, lengths)):
        episodes = {}
        for key in _prefix_keys(tangle, length):
            episode = KeyEpisode(
                key=key,
                label=tangle.label_of(key),
                sequence_length=tangle.sequence_length(key),
            )
            episodes[key] = episode
            gid[(i, key)] = len(episode_index)
            episode_index.append((i, key, episode))
        episodes_per.append(episodes)
        undecided[i] = len(episodes)

    cache: dict = {}  # the encoder's keys and values of rows [0, encoded)
    start = encoded = 0  # the latest chunk holds rows [start, encoded)
    chunk: Optional[Tensor] = None
    fusion, policy, state_dim = model.fusion, model.policy, model.state_dim
    # Round n's fusion states are the rows of one stacked block,
    # ``state_blocks[n]``, and their representations ``rep_blocks[n - 1]``;
    # ``state_blocks[0]`` is one zero row, every fusion's initial state.
    state_blocks: List[Tensor] = [Tensor(np.zeros((1, fusion.state_width)))]
    rep_blocks: List[Tensor] = []
    heads: List[Tensor] = []  # round n's [p, log p, log(1 - p)] rows
    latest = {}  # (sample, key) -> (block, row) of its latest state

    round_states: List[np.ndarray] = []
    step_actions: List[int] = []
    step_episode: List[int] = []
    step_obs_index: List[int] = []

    # Tangles with an undecided episode and rows left, in index order.  A
    # tangle leaves for good: its count of undecided episodes only falls and
    # ``t`` only grows.
    live = list(range(batch))
    for t in range(t_max):
        rows: List[int] = []
        sub: List[Tuple[int, object, KeyEpisode]] = []
        still_live: List[int] = []
        for i in live:
            if t >= lengths[i] or not undecided[i]:
                continue
            still_live.append(i)
            key = tangles[i][t].key
            episode = episodes_per[i][key]
            if episode.halted:
                continue
            rows.append(i)
            sub.append((i, key, episode))
        live = still_live
        if not live:
            break  # every remaining arrival belongs to a halted key
        if not rows:
            continue

        # Rows are read in order, so the chunk holding row t is the latest.
        while t >= encoded:
            start, encoded = encoded, _chunk_stop(encoded, t_max)
            chunk = padded.encode(start, encoded, cache)
        # Four graph nodes per round: the step-t encoded rows of the live
        # episodes, their previous states, the fusion step and the head.
        xs = chunk[(np.asarray(rows), t - start)]
        previous = gather_rows(
            state_blocks, [latest.get((i, key), (0, 0)) for i, key, _ in sub]
        )
        states = fusion.step(previous, xs)
        reps = fusion.representation(states)
        head = policy.head(reps)
        state_blocks.append(states)
        rep_blocks.append(reps)
        heads.append(head)
        block = len(state_blocks) - 1
        prob_data = head.data[:, 0]
        reps_data = reps.data[:, :state_dim]

        for r, (i, key, episode) in enumerate(sub):
            if mode == "sample":
                action = (
                    ACTION_HALT
                    if rngs[i].random() < float(prob_data[r])
                    else ACTION_WAIT
                )
            else:
                action = (
                    ACTION_HALT if float(prob_data[r]) >= halt_threshold else ACTION_WAIT
                )
            episode.actions.append(action)
            # A detached bookkeeping copy: the differentiable states live in
            # the round blocks.
            episode.states.append(Tensor(reps_data[r]))
            step_actions.append(action)
            step_episode.append(gid[(i, key)])
            step_obs_index.append(episode.num_observations - 1)
            latest[(i, key)] = (block, r)
            if action == ACTION_HALT:
                episode.halted = True
                episode.halted_by_policy = True
                undecided[i] -= 1

        round_states.append(reps_data)

    # One batched classifier pass over every episode's decision state: the
    # halting representation for policy-halted episodes, the final observed
    # one for the rest.
    decisions = [latest[(i, key)] for i, key, _ in episode_index]
    class_logits = model.classifier(
        gather_rows(rep_blocks, [(block - 1, row) for block, row in decisions], state_dim)
    )
    class_probs = softmax_array(class_logits.data)
    episode_labels = np.asarray(
        [episode.label for _, _, episode in episode_index], dtype=np.int64
    )
    episode_tangles = np.asarray([i for i, _, _ in episode_index], dtype=np.int64)
    episode_predicted = np.empty(len(episode_index), dtype=np.int64)
    episode_num_obs = np.empty(len(episode_index), dtype=np.int64)
    for e, (i, key, episode) in enumerate(episode_index):
        probabilities = class_probs[e]
        episode.predicted = int(np.argmax(probabilities))
        episode.confidence = float(np.max(probabilities))
        if not episode.halted:
            episode.halted = True
            episode.halted_by_policy = False
        episode_predicted[e] = episode.predicted
        episode_num_obs[e] = episode.num_observations

    step_heads = Tensor.concatenate(heads)  # (num_steps, 3), round-major
    tail = BatchedStepTail(
        log_halt=step_heads[:, 1],
        log_wait=step_heads[:, 2],
        step_actions=np.asarray(step_actions, dtype=np.int64),
        step_episode=np.asarray(step_episode, dtype=np.int64),
        step_obs_index=np.asarray(step_obs_index, dtype=np.int64),
        states_data=np.concatenate(round_states, axis=0),
        class_logits=class_logits,
        episode_labels=episode_labels,
        episode_tangles=episode_tangles,
        episode_predicted=episode_predicted,
        episode_num_obs=episode_num_obs,
    )
    results = [EpisodeResult(episodes=episodes_per[i]) for i in range(batch)]
    return results, tail


def _prefix_keys(tangle: TangledSequence, length: int) -> List[Hashable]:
    """The keys of ``tangle[:length]`` in first-appearance order.

    Items are read only until every key of the tangle has appeared.
    """
    seen: dict = {}
    for item in islice(tangle.items, length):
        seen.setdefault(item.key)
        if len(seen) == tangle.num_keys:
            break
    return list(seen)


def _chunk_stop(encoded: int, t_max: int) -> int:
    """End row of the causal chunk encoded after the first ``encoded`` rows."""
    return min(t_max, 2 * encoded if encoded else _FIRST_CHUNK)


class _PaddedMinibatch:
    """A minibatch's encoder inputs, padded to ``t_max`` rows, built per chunk.

    :meth:`inputs` builds only rows ``[start, stop)``, from column tables
    (:class:`~repro.core.correlation.TangleColumns`) extended up to
    ``stop`` and no further, so rows the round loop never reaches are
    never tabled.
    """

    def __init__(self, model, tangles: Sequence[TangledSequence], lengths: Sequence[int]) -> None:
        self.model = model
        self.table = TangleColumns(tangles, lengths)

    def inputs(self, start: int, stop: int) -> EncoderInputs:
        """The inputs of rows ``[start, stop)``; rows are tabled up to ``stop``."""
        self.table.extend(stop)
        return self.model.encoder_inputs(self.table, start, stop)

    def encode(self, start: int, stop: int, cache: dict) -> Tensor:
        """Encoded rows ``[start, stop)`` as a ``(B, stop - start, d)`` tensor.

        ``cache`` is the encoder's key/value cache holding rows
        ``[0, start)``; it gains the new rows.
        """
        inputs = self.inputs(start, stop)
        embedded = self.model.input_embedding.embed_rows(
            *(column.reshape(column.shape[:-2] + (-1,)) for column in inputs.coordinates)
        ).reshape(inputs.mask.shape[0], stop - start, -1)
        return self.model.encoder.forward_batch(
            embedded,
            mask=inputs.mask,
            phases=inputs.phases,
            delta=inputs.delta,
            same=inputs.same,
            cache=cache,
        )

"""The KVEC model: KVRL representation learning + ECTL halting (Fig. 2).

Because the correlation mask restricts attention to positions ``j <= i``, a
single full-length pass of the attention encoder yields, at every row ``t``,
exactly the representation the streaming system would have computed after
observing ``t`` items — so episodes are generated efficiently without
re-encoding the prefix at every step, while remaining faithful to the
paper's streaming semantics.  Training runs a minibatch of tangles in
lockstep (:meth:`KVEC.run_episodes`), encoding rows in causal chunks only
as far as its episodes read; :meth:`KVEC.predict_tangle` classifies one
tangle on the raw-numpy inference path.

:meth:`KVEC.encoder_inputs` is the one build of the Section IV-B encoder
inputs (embedding coordinates, the correlation mask and its pairs, and the
rotary inputs) from the column tables of
:class:`~repro.core.correlation.TangleColumns`.  Every offline encode reads
it: the training runner once per causal chunk, :meth:`KVEC.encode_inference`
over a whole tangle, and the serving state's
:meth:`~repro.core.incremental.IncrementalEncoderState.rebuild` over its
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.classifier import SequenceClassifier
from repro.core.config import KVECConfig
from repro.core.correlation import (
    CorrelationStructure,
    TangleColumns,
    correlated_pairs,
    correlation_mask,
)
from repro.core.ectl import BaselineValue, HaltingPolicy
from repro.core.embeddings import InputEmbedding
from repro.core.fusion import make_fusion
from repro.core.kvrl import KVRLEncoder
from repro.data.items import TangledSequence, ValueSpec
from repro.nn.attention import MASK_VALUE, rotary_phases
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


@dataclass
class PredictionRecord:
    """The outcome of early classification for one key-value sequence."""

    key: Hashable
    predicted: int
    label: int
    halt_observation: int
    sequence_length: int
    confidence: float = 0.0
    halted_by_policy: bool = True

    @property
    def correct(self) -> bool:
        return self.predicted == self.label

    @property
    def earliness(self) -> float:
        """Fraction of the sequence observed before classification (n_k / |S_k|)."""
        if self.sequence_length == 0:
            return 1.0
        return self.halt_observation / self.sequence_length


@dataclass
class KeyEpisode:
    """Everything recorded for one key-value sequence during an episode."""

    key: Hashable
    label: int
    sequence_length: int
    states: List[Tensor] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    halted: bool = False
    halted_by_policy: bool = False
    predicted: Optional[int] = None
    confidence: float = 0.0

    @property
    def num_observations(self) -> int:
        """``n_k`` — the number of items observed before classification."""
        return len(self.states)

    def to_record(self) -> PredictionRecord:
        if self.predicted is None:
            raise ValueError(f"sequence {self.key!r} was never classified")
        return PredictionRecord(
            key=self.key,
            predicted=self.predicted,
            label=self.label,
            halt_observation=self.num_observations,
            sequence_length=self.sequence_length,
            confidence=self.confidence,
            halted_by_policy=self.halted_by_policy,
        )


@dataclass
class EpisodeResult:
    """The result of running KVEC over one tangled sequence."""

    episodes: Dict[Hashable, KeyEpisode]

    def records(self) -> List[PredictionRecord]:
        return [episode.to_record() for episode in self.episodes.values()]

    @property
    def num_keys(self) -> int:
        return len(self.episodes)


class EncoderInputs(NamedTuple):
    """The encoder inputs of rows ``[start, stop)`` of a group of tangles.

    ``L = stop - start`` rows of ``B`` tangles, each attending to the
    columns ``[0, stop)``; built by :meth:`KVEC.encoder_inputs`.
    """

    #: The :meth:`~repro.core.embeddings.InputEmbedding.embed_rows` indices:
    #: field codes ``(num_fields, B, L)``, then membership, position and
    #: time, each ``(B, L)``.
    coordinates: Tuple[np.ndarray, ...]
    mask: np.ndarray  # (B, L, stop) additive correlation masks
    key_correlated: np.ndarray  # (B, L, stop), as in CorrelationStructure
    value_correlated: np.ndarray
    phases: Optional[Tuple[np.ndarray, np.ndarray]]  # rotary (L, d_head)
    delta: Optional[np.ndarray]  # rotary relative bias (B, L, stop)
    same: Optional[np.ndarray]

    def single(self) -> "EncoderInputs":
        """A one-tangle build without its batch axis.

        The shapes the numpy inference paths take: ``(L, stop)`` masks,
        pairs and delta/same, and ``(num_fields, L)`` / ``(L,)``
        coordinates.
        """
        return EncoderInputs(
            coordinates=tuple(column[..., 0, :] for column in self.coordinates),
            mask=self.mask[0],
            key_correlated=self.key_correlated[0],
            value_correlated=self.value_correlated[0],
            phases=self.phases,
            delta=None if self.delta is None else self.delta[0],
            same=None if self.same is None else self.same[0],
        )


class KVEC(Module):
    """Key-Value sequence Early Co-classification model."""

    def __init__(self, spec: ValueSpec, num_classes: int, config: Optional[KVECConfig] = None) -> None:
        super().__init__()
        self.config = config or KVECConfig()
        self.spec = spec
        self.num_classes = num_classes
        rng = np.random.default_rng(self.config.seed)

        self.input_embedding = InputEmbedding(
            spec,
            self.config.d_model,
            max_positions=self.config.max_positions,
            max_keys=self.config.max_keys,
            max_time=self.config.max_time,
            use_membership_embedding=self.config.use_membership_embedding,
            use_time_embeddings=self.config.use_time_embeddings,
            encoding=self.config.encoding,
            rng=rng,
        )
        rotary = self.config.encoding == "rotary"
        self.encoder = KVRLEncoder(
            self.config.d_model,
            self.config.num_blocks,
            num_heads=self.config.num_heads,
            ffn_hidden=self.config.ffn_hidden,
            dropout=self.config.dropout,
            rotary=rotary,
            max_relative_positions=self.config.max_positions if rotary else 0,
            rng=rng,
        )
        state_dim = self.config.d_state if self.config.fusion == "gated" else self.config.d_model
        self.state_dim = state_dim
        self.fusion = make_fusion(self.config.fusion, self.config.d_model, self.config.d_state, rng=rng)
        self.policy = HaltingPolicy(state_dim, rng=rng)
        self.baseline = BaselineValue(state_dim, rng=rng)
        self.classifier = SequenceClassifier(state_dim, num_classes, rng=rng)

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def encoder_inputs(self, table: TangleColumns, start: int, stop: int) -> EncoderInputs:
        """The encoder inputs of rows ``[start, stop)`` of ``table``'s tangles.

        ``table`` must be tabled up to ``stop``.  Rotary positions are the
        rows' indices in the table: logits depend only on index
        differences, so any consistent origin matches the streaming path's
        global indices.  Padding rows gather embedding-table row 0 and keep
        a visible diagonal so their softmax stays finite.
        """
        config = self.config
        attention = self.encoder.blocks[0].attention
        same_key, key_correlated, value_correlated = correlated_pairs(
            table,
            start,
            stop,
            use_key_correlation=config.use_key_correlation,
            use_value_correlation=config.use_value_correlation,
        )
        phases = delta = same = None
        if config.encoding == "rotary" and config.use_time_embeddings:
            phases = rotary_phases(np.arange(start, stop, dtype=np.float64), attention.d_head)
            if attention.rel_bias is not None:
                live = table.live(0, stop)
                pairs = live[:, start:, None] & live[:, None, :]
                ranks = table.ranks[:, :stop]
                delta = np.where(
                    pairs,
                    attention.clip_rank_delta(ranks[:, start:, None] - ranks[:, None, :]),
                    0,
                )
                same = (same_key & pairs).astype(np.float64)
        return EncoderInputs(
            coordinates=self.input_embedding.table_coordinates(table, start, stop),
            mask=correlation_mask(key_correlated, value_correlated, start),
            key_correlated=key_correlated,
            value_correlated=value_correlated,
            phases=phases,
            delta=delta,
            same=same,
        )

    @staticmethod
    def _band_limit(mask: np.ndarray, attention_window: Optional[int]) -> np.ndarray:
        """Restrict visibility to the ``attention_window`` most recent rows.

        Serving-side reference for the rotary scheme: row ``i`` may only see
        rows ``j`` with ``i - j < attention_window``, which reproduces the
        bounded context a sliding-window streamer had at row ``i``'s arrival.
        """
        if attention_window is None or mask.shape[0] <= attention_window:
            return mask
        index = np.arange(mask.shape[0])
        out_of_band = (index[:, None] - index[None, :]) >= attention_window
        return np.where(out_of_band, MASK_VALUE, mask)

    def encode_inference(
        self,
        tangle: TangledSequence,
        upto: Optional[int] = None,
        attention_window: Optional[int] = None,
        store_attention: bool = False,
    ):
        """Return ``(item_representations, correlation_structure)`` for a prefix.

        Raw arrays, no autograd graph.  The prefix is tabled once and
        :meth:`encoder_inputs` builds the mask, the structure's pairs, the
        coordinates and the rotary inputs from that table.
        ``store_attention`` keeps every block's attention weights for
        :meth:`KVRLEncoder.attention_maps` (the Fig. 10 attention-score
        analysis reads them).
        """
        length = tangle.prefix_length(upto)
        if length == 0:
            raise ValueError("cannot embed an empty tangled sequence")
        table = TangleColumns([tangle], [length])
        table.extend(length)
        inputs = self.encoder_inputs(table, 0, length).single()
        representations = self.encoder.forward_inference(
            self.input_embedding.forward_inference(*inputs.coordinates),
            mask=self._band_limit(inputs.mask, attention_window),
            store_attention=store_attention,
            phases=inputs.phases,
            delta=inputs.delta,
            same=inputs.same,
        )
        structure = CorrelationStructure(
            mask=inputs.mask,
            key_correlated=inputs.key_correlated,
            value_correlated=inputs.value_correlated,
        )
        return representations, structure

    # ------------------------------------------------------------------ #
    # episode generation
    # ------------------------------------------------------------------ #
    def run_episodes(
        self,
        tangles,
        mode: str = "sample",
        halt_threshold: float = 0.5,
        rngs=None,
        max_items: Optional[int] = None,
    ):
        """Run one episode per tangle, executing the minibatch in lockstep.

        The training path: one GEMM per layer and arrival round across the
        whole minibatch.  The padded minibatch's inputs are built and
        encoded in causal chunks on demand (rows ``[0, 16)`` first, then
        doubling), so rows after the last episode halts are never built,
        encoded or backpropagated.
        ``mode="sample"`` draws Halt/Wait from one RNG per tangle;
        ``"greedy"`` halts at ``halt_threshold``.  Returns
        ``(results, tail)``; see
        :func:`repro.core.batched_episodes.run_episodes_batched` for the
        tail layout.
        """
        from repro.core.batched_episodes import run_episodes_batched

        return run_episodes_batched(
            self,
            tangles,
            mode=mode,
            halt_threshold=halt_threshold,
            rngs=rngs,
            max_items=max_items,
        )

    # ------------------------------------------------------------------ #
    # evaluation interface
    # ------------------------------------------------------------------ #
    def predict_tangle(
        self,
        tangle: TangledSequence,
        halt_threshold: float = 0.5,
        max_items: Optional[int] = None,
    ) -> List[PredictionRecord]:
        """Early-classify every key-value sequence in ``tangle`` (no gradients).

        Greedy halting on the raw-numpy inference path: plain ndarray math
        end to end, with no autograd ``Tensor`` objects.  ``max_items``
        truncates the tangle to its first ``max_items`` items.  Records come
        in the order of each key's first appearance.
        """
        length = tangle.prefix_length(max_items)
        if length == 0:
            raise ValueError("cannot run an episode on an empty tangled sequence")
        representations, _ = self.encode_inference(tangle, upto=length)

        fusion_states: Dict[Hashable, tuple] = {}
        last_representation: Dict[Hashable, np.ndarray] = {}
        observations: Dict[Hashable, int] = {}
        key_order: List[Hashable] = []
        decided: Dict[Hashable, PredictionRecord] = {}

        for index in range(length):
            key = tangle[index].key
            if key not in observations:
                key_order.append(key)
                observations[key] = 0
            if key in decided:
                continue
            representation = self.fusion_step_inference(fusion_states, key, representations[index])
            last_representation[key] = representation
            observations[key] += 1

            if self.policy.halt_probability_inference(representation) >= halt_threshold:
                decided[key] = self._record_inference(
                    tangle, key, representation, observations[key], halted_by_policy=True
                )

        records: List[PredictionRecord] = []
        for key in key_order:
            record = decided.get(key)
            if record is None:
                record = self._record_inference(
                    tangle, key, last_representation[key], observations[key], halted_by_policy=False
                )
            records.append(record)
        return records

    def fusion_step_inference(
        self, states: Dict[Hashable, tuple], key: Hashable, encoded_row: np.ndarray
    ) -> np.ndarray:
        """Fold one encoded row into ``states[key]`` (created on first use).

        Returns the key's updated fused representation.  This is the single
        definition of the per-key fusion replay, shared by the offline fast
        path, the streaming KV cache and the serving engine's banded
        reference so the three cannot drift apart.
        """
        state = states.get(key)
        if state is None:
            state = self.fusion.initial_state_inference()
        representation, states[key] = self.fusion.forward_inference(state, encoded_row)
        return representation

    def fusion_steps_inference(
        self, entries, encoded_rows: np.ndarray
    ) -> List[np.ndarray]:
        """Batched :meth:`fusion_step_inference` across independent streams.

        ``entries`` is a sequence of ``(states_dict, key)`` pairs — one per
        stream — and ``encoded_rows`` the matching ``(B, d_model)`` rows.
        Streams are independent, so their fusion steps stack into one gate
        GEMM (``forward_inference_batch``).
        """
        current = []
        for states, key in entries:
            state = states.get(key)
            current.append(
                state if state is not None else self.fusion.initial_state_inference()
            )
        representations, new_states = self.fusion.forward_inference_batch(current, encoded_rows)
        for (states, key), state in zip(entries, new_states):
            states[key] = state
        return [representations[index] for index in range(len(entries))]

    def _record_inference(
        self,
        tangle: TangledSequence,
        key: Hashable,
        representation: np.ndarray,
        num_observations: int,
        halted_by_policy: bool,
    ) -> PredictionRecord:
        probabilities = self.classifier.probabilities_inference(representation)
        return PredictionRecord(
            key=key,
            predicted=int(np.argmax(probabilities)),
            label=tangle.label_of(key),
            halt_observation=num_observations,
            sequence_length=tangle.sequence_length(key),
            confidence=float(np.max(probabilities)),
            halted_by_policy=halted_by_policy,
        )

    def make_incremental_state(self, capacity: Optional[int] = None):
        """Create an :class:`~repro.core.incremental.IncrementalEncoderState`."""
        from repro.core.incremental import IncrementalEncoderState

        return IncrementalEncoderState(self, capacity=capacity)

    def trainable_parameters(self) -> List[Parameter]:
        """Parameters of θ = (θ1, θπ): everything except the baseline network."""
        baseline_ids = {id(p) for p in self.baseline.parameters()}
        return [p for p in self.parameters() if id(p) not in baseline_ids]

"""Per-stream serving sessions and the single-stream engine facade.

The serving layer is split into three composable tiers:

* :class:`StreamSession` (this module) — ALL the per-stream state and logic:
  one bounded :class:`~repro.data.stream.SlidingWindow`, one incremental
  KV-cache (:class:`~repro.core.incremental.IncrementalEncoderState`), the
  per-key decision bookkeeping, and the offer/evaluate/flush decision
  machinery.  A session knows nothing about other streams.
* :class:`~repro.serving.cluster.ShardWorker` — owns many sessions keyed by
  stream id, a bounded arrival queue, and the cross-stream *batched* row
  encoding that drains that queue with one GEMM per block instead of one
  GEMV chain per arrival (via :func:`repro.core.incremental.append_batch`).
  Each drain round takes at most ``ClusterConfig.batch_size`` arrivals.
* :class:`~repro.serving.cluster.ServingCluster` — hash-routes stream ids to
  shards, applies admission control / backpressure, and exposes the
  deployment API (``submit`` / ``drain`` / ``flush`` / ``snapshot`` /
  ``restore``).  Shard work runs on a pluggable execution backend
  (:mod:`repro.serving.parallel`): inline on the caller, or concurrently on
  a persistent thread pool with every shard pinned to one worker — which is
  why a session may assume single-threaded access to its own state.
* Push-based delivery on top (:mod:`repro.serving.results`,
  :mod:`repro.serving.sinks`, :mod:`repro.serving.aio`) — explicit
  per-submission admission outcomes, sink subscriptions that receive every
  decision in emission order, and the asyncio
  :class:`~repro.serving.aio.AsyncServingGateway`, whose ``decisions()``
  iterator streams every decision and whose ``result()`` is a future of one
  key's decision.
  Sessions are oblivious to all of it: decisions leave a session as return
  values and the upper layers fan them out.

:class:`OnlineClassificationEngine` — the historical single-stream API — is a
thin alias over one session: it *is* a :class:`StreamSession`, so every
existing parity test and benchmark runs unchanged, and the cluster's
per-stream semantics are by construction those of the single-stream engine.

A session adapts a trained :class:`~repro.core.model.KVEC` model (or any
object exposing its ``predict_tangle`` interface) to a live item stream:

1. arrivals are appended to a bounded :class:`~repro.data.stream.SlidingWindow`
   (the tangled context the correlation mask operates on),
2. every ``reencode_every`` arrivals the window is evaluated in greedy mode
   and any key the halting policy stops is *decided*,
3. a decided key is frozen: later arrivals for it are counted but never
   change its label (matching the paper's semantics where a halted sequence
   is handed to the classifier exactly once),
4. keys whose flow ends without the policy halting are force-decided when
   :meth:`StreamSession.flush` is called.

Because the KVRL attention mask is causal, the representation computed for a
prefix inside the window equals the representation the offline model would
have produced after observing that prefix — the only approximation at
serving time is the bounded window, which is reported via
``Decision.window_truncated``.

Incremental KV-cache design
---------------------------
In the default ``mode="incremental"`` the engine does not re-encode the
window on every evaluation.  It maintains an
:class:`~repro.core.incremental.IncrementalEncoderState` that caches, per
attention block, the projected key/value rows of every item in the window,
the incrementally extended correlation-mask rows, and the per-key fusion
states.  Each arrival is encoded by computing only its own row's attention
against the cached K/V across all blocks — O(W·d) instead of the O(W²·d)
full re-encode — on the raw-numpy no-grad fast path (no autograd ``Tensor``
objects are built at serving time).

*Exactness.*  The correlation mask is strictly causal (row ``i`` attends only
to ``j <= i``), so in an append-only window no earlier row's representation
ever changes; the incrementally computed row is bit-for-bit the row a full
re-encode would produce (up to BLAS summation-order noise, well below 1e-9).
Halting decisions can therefore be taken from the newly computed rows alone:
any older row of a still-undecided key was already below the halting
threshold when it was last evaluated, and its representation has not changed.

Eviction behaviour per encoding scheme
--------------------------------------
``KVECConfig.encoding`` decides what a window eviction costs:

* ``encoding="absolute"`` (the paper's scheme): the time/position/membership
  embedding indices are window-relative, so when the window evicts an item
  every remaining row shifts and *all* cached rows go stale.  The engine
  invalidates the cache and (lazily) rebuilds it with one batched no-grad
  re-encode of the shrunken window, then re-scans every row at the next
  evaluation.  Saturated-window serving therefore stays O(W²·d) per arrival.
  Constructing an engine whose ``window_items`` exceeds the model's
  ``max_time`` table is rejected up front instead of silently aliasing time
  embeddings deep inside the lookup.

* ``encoding="rotary"`` (eviction-stable): time/position information lives
  on the attention side (rotary phases by global arrival index + relative
  within-key bias), so cached rows are invariant to their window offset.
  Each row's representation is *frozen at arrival* — computed once over the
  window contents at that moment and never recomputed.  Eviction just drops
  the oldest ring row (O(1): the ring's base advances, nothing moves) and
  the new arrival appends one O(W·d) row; there is **no rebuild**, making saturated-window serving O(W·d) per
  arrival.  Per-key fusion states survive eviction, so flush can still
  classify a key whose items have all left the window.

``mode="full"`` is the uncached reference used by the parity tests.  For
absolute models it re-encodes the current window on every evaluation (the
seed behaviour).  For rotary models the exact reference semantics is a
re-encode of the *entire retained stream* under a band-``W`` attention mask
(row ``i`` sees at most the ``W`` arrivals up to it): that reproduces the
frozen-at-arrival representations bit for bit, at O(T²·d) per evaluation
with unbounded memory — strictly a correctness oracle, not a serving mode.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.model import KVEC, PredictionRecord
from repro.data.items import TangledSequence, ValueSpec
from repro.data.stream import SlidingWindow, StreamEvent


def require_ints(config: object, *names: str) -> None:
    """Raise ``ValueError`` naming the field unless each named field of
    ``config`` holds an ``int`` that is not a ``bool``.

    The type check every serving config runs on its counts, before its own
    range checks: ``True`` would otherwise pass as 1, and a float such as
    2.5 would size a window or set a cadence.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, not {type(value).__name__}")


@dataclass
class EngineConfig:
    """Serving-time configuration of the online engine.

    Attributes
    ----------
    window_items:
        Maximum number of items retained in the tangled context window.
    halt_threshold:
        Greedy halting threshold applied to the policy's halt probability.
    reencode_every:
        Re-encode the window after this many arrivals (1 = every item, the
        most faithful and the most expensive setting).
    mode:
        ``"incremental"`` (default) serves from the KV-cached streaming
        encoder state; ``"full"`` re-encodes on every evaluation (the
        uncached reference behaviour; see the module docstring for its
        rotary-scheme semantics).  Models that do not expose
        ``make_incremental_state`` fall back to ``"full"``.
    """

    window_items: int = 256
    halt_threshold: float = 0.5
    reencode_every: int = 1
    mode: str = "incremental"

    def __post_init__(self) -> None:
        require_ints(self, "window_items", "reencode_every")
        if self.window_items <= 0:
            raise ValueError("window_items must be positive")
        if not 0.0 < self.halt_threshold <= 1.0:
            raise ValueError("halt_threshold must be in (0, 1]")
        if self.reencode_every <= 0:
            raise ValueError("reencode_every must be positive")
        if self.mode not in ("incremental", "full"):
            raise ValueError(f"unknown engine mode {self.mode!r}")

    def validate_for_model(self, model) -> None:
        """Reject configurations the model cannot serve exactly.

        The legacy absolute encoding indexes its time-embedding table by the
        item's offset within the window, so a window larger than the table
        (``KVECConfig.max_time``) would silently alias time embeddings (and,
        on the incremental path, trip bounds checks deep inside the cache).
        Fail at construction time instead.  Models without a ``config``
        attribute (e.g. bare ``predict_tangle`` adapters) are not checked.
        """
        config = getattr(model, "config", None)
        if config is None:
            return
        encoding = getattr(config, "encoding", "absolute")
        max_time = getattr(config, "max_time", None)
        if encoding == "absolute" and max_time is not None and self.window_items > max_time:
            raise ValueError(
                f"window_items={self.window_items} exceeds the absolute "
                f"time-embedding capacity max_time={max_time}; raise "
                f"KVECConfig.max_time or use encoding='rotary'"
            )


@dataclass
class Decision:
    """The engine's classification decision for one key."""

    key: Hashable
    predicted: int
    confidence: float
    observations: int
    decision_time: float
    halted_by_policy: bool
    window_truncated: bool

    def to_record(self, label: int, sequence_length: int) -> PredictionRecord:
        """Convert to an offline :class:`PredictionRecord` given ground truth."""
        return PredictionRecord(
            key=self.key,
            predicted=self.predicted,
            label=int(label),
            halt_observation=self.observations,
            sequence_length=int(sequence_length),
            confidence=self.confidence,
            halted_by_policy=self.halted_by_policy,
        )


class StreamSession:
    """One independent stream's serving state and decision machinery.

    Owns exactly one window, one incremental encoder state and one set of
    per-key decisions.  Used directly (as the single-stream
    :class:`OnlineClassificationEngine`) or in bulk by a
    :class:`~repro.serving.cluster.ShardWorker`, which splits :meth:`offer`
    into its :meth:`_ingest` / append / :meth:`_complete_offer` phases so
    the append step of many sessions can run as one cross-stream batch.
    """

    def __init__(self, model: KVEC, spec: ValueSpec, config: Optional[EngineConfig] = None) -> None:
        self.model = model
        self.spec = spec
        self.config = config or EngineConfig()
        self.config.validate_for_model(model)
        self.window = SlidingWindow(max_items=self.config.window_items)
        #: Items observed per key on this stream (the paper's ``n_k``).
        self.observations: Dict[Hashable, int] = {}
        self.decisions: Dict[Hashable, Decision] = {}
        self._arrivals_since_encode = 0
        self._truncated_keys: set = set()
        self._clock = float("-inf")
        self._encoding = getattr(getattr(model, "config", None), "encoding", "absolute")
        #: Rotary ring-buffer maintenance (evict+append, never rebuild)?
        self._ring = self._encoding == "rotary"
        #: Undecided keys with at least one item in the window (see below);
        #: initialised unconditionally so decision paths can update it.
        self._window_pending: set = set()

        self._incremental = None
        #: Retained item history for the rotary full-mode reference (None
        #: unless that mode is active; grows without bound by design).
        self._history: Optional[List] = None
        if self.config.mode == "incremental" and hasattr(model, "make_incremental_state"):
            self._incremental = model.make_incremental_state(capacity=self.config.window_items)
            #: Halting probability of each cached context row, parallel to the
            #: incremental state's rows.
            self._row_halt: List[float] = []
            #: Rows appended (or invalidated by a rebuild) since the last
            #: evaluation — the only candidates for new halting decisions.
            self._unscanned_rows: List[int] = []
            #: True after an eviction invalidates the cached rows (absolute
            #: scheme only — the rotary ring never goes dirty).  The rebuild
            #: is deferred to the next evaluation / flush that has pending
            #: keys; while no undecided key has items in the window (the full
            #: path's empty-pending early return) the cache stays dirty at
            #: zero per-arrival cost.
            self._cache_dirty = False
            #: O(1) bookkeeping replacing an O(W) window scan per arrival:
            #: per-key item counts of the current window.
            self._window_key_counts: Dict[Hashable, int] = {}
        elif self.config.mode == "full" and self._ring:
            self._history = []
            #: Arrivals already scanned for halting at a previous evaluation.
            self._scanned_arrivals = 0
            #: Key -> first-appearance rank in the stream (decision ordering).
            self._key_first_seen: Dict[Hashable, int] = {}

    def __deepcopy__(self, memo) -> "StreamSession":
        """Copy the serving state container by container.

        Shard checkpoints, snapshots, migration and replica seeding all
        deep-copy sessions.  A generic object walk would visit every frozen
        item and every float; here each container is one C-level copy and
        each :class:`Decision` one ``copy.copy``.  ``model``, ``spec`` and
        ``config`` go through ``memo``, so the caller's memo decides
        whether they are shared, detached or copied.
        """
        new = copy.copy(self)
        memo[id(self)] = new
        new.model = copy.deepcopy(self.model, memo)
        new.spec = copy.deepcopy(self.spec, memo)
        new.config = copy.deepcopy(self.config, memo)
        new.window = copy.deepcopy(self.window, memo)
        new.observations = dict(self.observations)
        new.decisions = {key: copy.copy(d) for key, d in self.decisions.items()}
        new._truncated_keys = set(self._truncated_keys)
        new._window_pending = set(self._window_pending)
        new._incremental = copy.deepcopy(self._incremental, memo)
        if self._incremental is not None:
            new._row_halt = list(self._row_halt)
            new._unscanned_rows = list(self._unscanned_rows)
            new._window_key_counts = dict(self._window_key_counts)
        if self._history is not None:
            new._history = list(self._history)
            new._key_first_seen = dict(self._key_first_seen)
        return new

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def offer(self, event: StreamEvent) -> List[Decision]:
        """Ingest one arrival; returns any decisions it triggered."""
        if self._ingest(event):
            self._append_to_cache(event)
        return self._complete_offer()

    def _ingest(self, event: StreamEvent) -> bool:
        """Phase 1 of :meth:`offer`: every bookkeeping step except the encode.

        Advances the clock, the key's observation count and the window,
        performs the cache *maintenance* the arrival forces (ring
        evictions, or dirty-marking under the absolute scheme) and returns
        True when the arrival's own row must still be appended to the
        incremental cache.  A shard drains a batch by calling this on every
        session first, then encoding all the still-pending rows in one
        cross-stream batch.

        **Rotary scheme (ring buffer).**  Cached rows are eviction-stable, so
        maintenance is always exact and always cheap: drop one ring row per
        evicted item (O(1)); the new arrival's O(W·d) row append is
        left to the caller.  The cache never goes dirty and is never rebuilt.

        **Absolute scheme.**  Appending to a clean, non-evicted cache is
        exact regardless of which keys are decided, so append-only arrivals
        always extend the cache in O(W·d).  An eviction invalidates every
        cached row, but the rebuild is deferred: nothing consumes the cache
        between evaluations, so rebuilding on each of ``reencode_every``
        evicting arrivals would waste all but the last rebuild.  The dirty
        cache is resynchronised lazily by the next evaluation / flush that
        actually has pending keys; while no undecided key has items in the
        window (the full path's empty-pending early return) it stays dirty
        at zero cost — and no per-arrival row is appended meanwhile.
        """
        self._clock = max(self._clock, event.time)
        self.observations[event.key] = self.observations.get(event.key, 0) + 1
        evicted = self.window.push(event.item)
        for item in evicted:
            if item.key not in self.decisions:
                self._truncated_keys.add(item.key)
        self._arrivals_since_encode += 1

        if self._incremental is not None:
            counts = self._window_key_counts
            counts[event.key] = counts.get(event.key, 0) + 1
            if event.key not in self.decisions:
                self._window_pending.add(event.key)
            for item in evicted:
                remaining = counts[item.key] - 1
                if remaining:
                    counts[item.key] = remaining
                else:
                    del counts[item.key]
                    self._window_pending.discard(item.key)
            if self._ring:
                while len(self._incremental) > len(self.window) - 1:
                    self._evict_from_cache()
                return True
            if self._cache_dirty or evicted:
                self._cache_dirty = True
                # Stale candidates must not survive: their rows no longer
                # mirror the window, and a later evaluation scanning them
                # would fabricate decisions the full path does not make.  The
                # rebuild re-scans every row anyway.
                self._unscanned_rows = []
                return False
            return True
        if self._history is not None:
            self._history.append(event.item)
            self._key_first_seen.setdefault(event.key, len(self._key_first_seen))
        return False

    def _append_to_cache(self, event: StreamEvent) -> None:
        """Phase 2 of :meth:`offer`: serially encode the arrival's row."""
        representation = self._incremental.append(event.item)
        self._note_appended_row(
            self.model.policy.halt_probability_inference(representation)
        )

    def _note_appended_row(self, halt_probability: float) -> None:
        """Record the halt probability of the row just appended to the cache.

        Split from :meth:`_append_to_cache` so the batched shard path — which
        computes the representations via
        :func:`repro.core.incremental.append_batch` and their halt
        probabilities as one batched matvec — can reuse the exact same
        per-session bookkeeping.
        """
        self._row_halt.append(float(halt_probability))
        self._unscanned_rows.append(len(self._incremental) - 1)

    def _complete_offer(self) -> List[Decision]:
        """Phase 3 of :meth:`offer`: evaluate if this arrival makes it due."""
        if self._arrivals_since_encode < self.config.reencode_every:
            return []
        return self._evaluate_window()

    def _evict_from_cache(self) -> None:
        """Drop the oldest ring row and re-align the per-row bookkeeping.

        An unscanned row that is evicted before it was ever evaluated loses
        its halting opportunity — exactly mirroring the full-mode reference,
        whose halting candidates are restricted to rows still inside the
        window at evaluation time.
        """
        self._incremental.evict_oldest()
        self._row_halt.pop(0)
        self._unscanned_rows = [index - 1 for index in self._unscanned_rows if index > 0]

    def _rebuild_cache(self) -> None:
        """Reseed the dirty KV cache from the current window contents.

        Every cached row went stale when the window evicted, so the rebuild
        re-encodes the window in one batched no-grad pass and every row
        becomes a fresh halting candidate.  Halt probabilities are evaluated
        as one batched matvec rather than a Python loop per row.
        """
        self._incremental.rebuild(self.window.items)
        fused = self._incremental.fused_rows
        if fused:
            probabilities = self.model.policy.halt_probabilities_inference(np.stack(fused))
            self._row_halt = [float(p) for p in probabilities]
        else:
            self._row_halt = []
        self._unscanned_rows = list(range(len(self._incremental)))
        self._cache_dirty = False

    def _sync_cache(self) -> bool:
        """Rebuild a dirty cache if any pending key could use it.

        Returns False when the cache is dirty *and* no undecided key has
        items in the window — the caller can emit nothing, exactly like the
        full path's empty-pending early return, so the rebuild cost is
        skipped too.
        """
        if not self._cache_dirty:
            return True
        if not self._window_pending:
            return False
        self._rebuild_cache()
        return True

    def consume(self, events: Iterable[StreamEvent]) -> List[Decision]:
        """Ingest a whole stream; returns every decision in emission order."""
        decisions: List[Decision] = []
        for event in events:
            decisions.extend(self.offer(event))
        return decisions

    # ------------------------------------------------------------------ #
    # decision logic
    # ------------------------------------------------------------------ #
    def _evaluate_window(self) -> List[Decision]:
        self._arrivals_since_encode = 0
        if not len(self.window):
            return []
        if self._incremental is not None:
            return self._evaluate_incremental()
        if self._history is not None:
            return self._evaluate_full_banded()
        pending = [
            key
            for key in {item.key for item in self.window}
            if key not in self.decisions
        ]
        if not pending:
            return []
        tangle = self.window.as_tangle(self.spec, name="serving-window")
        records = self.model.predict_tangle(tangle, halt_threshold=self.config.halt_threshold)
        emitted: List[Decision] = []
        for record in records:
            if record.key not in pending or not record.halted_by_policy:
                continue
            emitted.append(self._decide(record, halted_by_policy=True))
        return emitted

    def _evaluate_incremental(self) -> List[Decision]:
        """Halt keys from rows computed since the last evaluation.

        Older rows of undecided keys were below the threshold when last
        scanned and their cached representations are unchanged (causal mask,
        append-only since the last rebuild), so they cannot newly halt.
        """
        if not self._sync_cache():
            return []
        threshold = self.config.halt_threshold
        halting: Dict[Hashable, int] = {}
        for index in self._unscanned_rows:
            key = self._incremental.row_key(index)
            if key in self.decisions or key in halting:
                continue
            if self._row_halt[index] >= threshold:
                halting[key] = index
        self._unscanned_rows = []
        # Emit in the window's key-first-appearance order, matching the order
        # the full path's predict_tangle records arrive in.
        return [
            self._decide_representation(
                key, self._incremental.fused_row(halting[key]), halted_by_policy=True
            )
            for key in sorted(halting, key=self._incremental.key_index)
        ]

    def _encode_banded_history(self):
        """Reference encode of the whole retained stream under a band-W mask.

        Returns ``(halt_probabilities, fused_rows, latest_rep)``: per-row
        halting probabilities and fused representations (arrival order), and
        each key's newest fused representation.  Because the band restricts
        row ``i`` to the ``window_items`` arrivals up to it, every row's
        representation equals what the streaming ring computed when that item
        arrived — frozen-at-arrival semantics, recomputed from scratch.
        """
        labels = {item.key: 0 for item in self._history}
        tangle = TangledSequence(list(self._history), labels, self.spec, name="serving-history")
        representations, _ = self.model.encode_inference(
            tangle, attention_window=self.config.window_items
        )
        states: Dict[Hashable, tuple] = {}
        fused: List[np.ndarray] = []
        latest: Dict[Hashable, np.ndarray] = {}
        for index, item in enumerate(self._history):
            representation = self.model.fusion_step_inference(
                states, item.key, representations[index]
            )
            latest[item.key] = representation
            fused.append(representation)
        probabilities = self.model.policy.halt_probabilities_inference(np.stack(fused))
        return probabilities, fused, latest

    def _evaluate_full_banded(self) -> List[Decision]:
        """Rotary full-mode evaluation: scan arrivals since the last one.

        Halting candidates are the rows that arrived since the previous
        evaluation *and* are still within the window — the same candidate
        set the ring path scans — taken from the banded full-history encode
        (whose rows are identical to the ring's frozen representations).
        """
        total = len(self._history)
        start = max(self._scanned_arrivals, total - self.config.window_items)
        self._scanned_arrivals = total
        if all(self._history[i].key in self.decisions for i in range(start, total)):
            return []
        probabilities, fused, _ = self._encode_banded_history()
        threshold = self.config.halt_threshold
        halting: Dict[Hashable, int] = {}
        for index in range(start, total):
            key = self._history[index].key
            if key in self.decisions or key in halting:
                continue
            if probabilities[index] >= threshold:
                halting[key] = index
        return [
            self._decide_representation(key, fused[halting[key]], halted_by_policy=True)
            for key in sorted(halting, key=self._key_first_seen.__getitem__)
        ]

    def _decide_representation(
        self, key: Hashable, representation, halted_by_policy: bool
    ) -> Decision:
        probabilities = self.model.classifier.probabilities_inference(representation)
        decision = Decision(
            key=key,
            predicted=int(np.argmax(probabilities)),
            confidence=float(np.max(probabilities)),
            observations=self.observations[key],
            decision_time=self._clock,
            halted_by_policy=halted_by_policy,
            window_truncated=key in self._truncated_keys,
        )
        self.decisions[key] = decision
        self._window_pending.discard(key)
        return decision

    def _decide(self, record: PredictionRecord, halted_by_policy: bool) -> Decision:
        decision = Decision(
            key=record.key,
            predicted=record.predicted,
            confidence=record.confidence,
            observations=self.observations[record.key],
            decision_time=self._clock,
            halted_by_policy=halted_by_policy,
            window_truncated=record.key in self._truncated_keys,
        )
        self.decisions[record.key] = decision
        return decision

    # ------------------------------------------------------------------ #
    # finishing touches
    # ------------------------------------------------------------------ #
    def undecided_keys(self) -> set:
        """Keys observed on this stream that have no decision yet."""
        return set(self.observations) - set(self.decisions)

    def flush(self) -> List[Decision]:
        """Force-decide every remaining undecided key from the current window."""
        keys = self.undecided_keys()
        if not keys or not len(self.window):
            return []
        if self._history is not None:
            _, _, latest = self._encode_banded_history()
            emitted: List[Decision] = []
            for key in sorted(keys, key=str):
                representation = latest.get(key)
                if representation is None:
                    continue
                emitted.append(
                    self._decide_representation(key, representation, halted_by_policy=False)
                )
            return emitted
        if self._incremental is not None:
            if not self._sync_cache():
                # No undecided key has items in the window; the full path's
                # flush tangle would not contain any of ``keys``, so nothing
                # may be decided — especially not from stale representations
                # of keys evicted while the cache was dirty.
                return []
            emitted: List[Decision] = []
            for key in sorted(keys, key=str):
                representation = self._incremental.latest_representation(key)
                if representation is None:
                    continue  # every item of the key was evicted from the window
                emitted.append(
                    self._decide_representation(key, representation, halted_by_policy=False)
                )
            return emitted
        tangle = self.window.as_tangle(self.spec, name="serving-flush")
        # Threshold 1.0 > any sigmoid output, so the policy never halts and
        # every key is classified from its final observed state.
        records = self.model.predict_tangle(tangle, halt_threshold=1.01)
        by_key = {record.key: record for record in records}
        emitted: List[Decision] = []
        for key in sorted(keys, key=str):
            record = by_key.get(key)
            if record is None:
                continue
            emitted.append(self._decide(record, halted_by_policy=False))
        return emitted

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def records(
        self,
        labels: Dict[Hashable, int],
        sequence_lengths: Dict[Hashable, int],
    ) -> List[PredictionRecord]:
        """Convert all decisions to prediction records given ground truth."""
        records: List[PredictionRecord] = []
        for key, decision in self.decisions.items():
            if key not in labels:
                continue
            records.append(decision.to_record(labels[key], sequence_lengths.get(key, decision.observations)))
        return records

    @property
    def num_decided(self) -> int:
        return len(self.decisions)

    @property
    def num_truncated(self) -> int:
        """Keys that lost items to window eviction before being decided."""
        return len(self._truncated_keys & set(self.decisions))


#: The historical single-stream API name.  It *is* a :class:`StreamSession`,
#: so its behaviour defines — decision for decision — what the sharded
#: :class:`~repro.serving.cluster.ServingCluster` must produce per stream (the
#: cluster parity suite pins this).
OnlineClassificationEngine = StreamSession

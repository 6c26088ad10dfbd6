"""Deterministic fault injection for the serving stack.

Fault tolerance that is not exercised is fault tolerance that does not work.
This module makes every failure mode of the serving stack *testable and
fuzzable*: a seeded :class:`FaultInjector` is armed with :class:`FaultSpec`
entries and wired into the cluster (``ClusterConfig.faults``); the serving
layer then calls :meth:`FaultInjector.fire` at well-defined boundaries, and
the injector decides — deterministically, from its seed and per-spec
counters — whether to raise, delay, or kill at that point.

Injection sites (:data:`FAULT_SITES`)
-------------------------------------
``"shard-round"``
    The start of a shard drain round, *before* any arrival is dequeued.  A
    fault here fails the round without losing arrivals — the pure
    supervision path (breaker counting, checkpoint restore with an empty
    lost set).
``"session-encode"``
    Inside a drain round, *after* the round's arrivals have been dequeued
    and their sessions' bookkeeping phase (``_ingest``) has run, but before
    the encode completes.  A fault here leaves sessions half-mutated and the
    round's arrivals consumed — the worst-case crash the checkpoint restore
    must recover from bit-for-bit (and the dequeued arrivals are the round's
    casualties: they are *lost*, which the supervisor records).
``"executor-job"``
    The start of a cluster-level shard job (each shard's part of a drain
    or flush, and the one job of a ``flush_stream``), on the shard's
    execution context.  Exercises the caller-side failure path the
    fan-outs and ``flush_stream`` share.
``"sink-publish"``
    Fired by :class:`FaultInjectingSink` on every delivery — subscribe one
    to a cluster (optionally wrapping a real sink) to model a subscriber
    that raises or stalls.  Publish failures must never poison a drain
    round: :class:`~repro.serving.sinks.FanOutSink` isolates and eventually
    quarantines the failing subscriber.

Actions
-------
``"raise"``
    Raise :class:`InjectedFault` — an ordinary failure: the supervisor
    counts it, the breaker trips after enough of them, recovery restores the
    shard from its checkpoint.
``"kill"``
    Raise :class:`ShardKilled` (an :class:`InjectedFault` subclass) — the
    simulated hard crash of a shard.  The supervision path is identical by
    design: any exception escaping a round means the shard's state can no
    longer be trusted, so both flavours recover from the last checkpoint.
``"delay"``
    Sleep for ``delay_s`` and continue: a slow round, which its caller
    waits for on either backend.  Under the thread executor it also holds
    the shard's pinned worker, so a test can act from another thread (a
    cluster restore, say) while the round is in flight.

Determinism
-----------
Every spec keeps its own eligible-hit and fire counters, and the
``probability`` draw comes from one seeded :class:`random.Random` guarded by
a lock.  With ``probability=1.0`` (the default) firing is a pure function of
the per-site call sequence — fully deterministic under the serial executor
and per-shard deterministic under the thread executor (shards interleave,
but a shard-scoped spec sees its own shard's calls in program order).
Probabilistic specs are seed-reproducible for a fixed interleaving, which is
what the chaos fuzz needs (same seed + serial executor = same faults).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.serving.sinks import DecisionSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.cluster import StreamDecision

__all__ = [
    "FAULT_SITES",
    "FAULT_ACTIONS",
    "FaultSpec",
    "FaultInjector",
    "FaultInjectingSink",
    "InjectedFault",
    "ShardKilled",
]

#: Boundaries the serving layer offers for injection.
FAULT_SITES = ("shard-round", "session-encode", "executor-job", "sink-publish")

#: What a firing spec does at its site.
FAULT_ACTIONS = ("raise", "delay", "kill")


class InjectedFault(RuntimeError):
    """An injected failure (the ``"raise"`` action)."""


class ShardKilled(InjectedFault):
    """An injected hard crash of a shard (the ``"kill"`` action)."""


@dataclass
class FaultSpec:
    """One armed fault: where it fires, what it does, and how often.

    Attributes
    ----------
    site:
        One of :data:`FAULT_SITES`.
    action:
        One of :data:`FAULT_ACTIONS` (default ``"raise"``).
    probability:
        Chance of firing per eligible hit, drawn from the injector's seeded
        RNG.  ``1.0`` (default) fires on every eligible hit —
        deterministic.
    delay_s:
        Sleep duration of the ``"delay"`` action (ignored otherwise).
    shard_id:
        Restrict the spec to one shard (``None`` matches every shard).
    after:
        Skip this many eligible hits before arming — "crash the shard's
        fourth round" is ``after=3``.
    limit:
        Maximum number of firings (``None`` = unlimited).  ``limit=1`` is
        the forced-crash-then-recover shape the parity tests use.
    """

    site: str
    action: str = "raise"
    probability: float = 1.0
    delay_s: float = 0.0
    shard_id: Optional[int] = None
    after: int = 0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.action == "delay" and self.delay_s == 0.0:
            raise ValueError("a delay fault needs delay_s > 0")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive (or None for unlimited)")


class _SpecState:
    """Mutable firing counters of one armed spec."""

    __slots__ = ("spec", "hits", "fires")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.hits = 0
        self.fires = 0

    def exhausted(self) -> bool:
        return self.spec.limit is not None and self.fires >= self.spec.limit


class FaultInjector:
    """Seeded, thread-safe fault scheduler for the serving boundaries.

    Arm it with specs (at construction or via :meth:`add`), hand it to the
    cluster (``ClusterConfig.faults``), and every armed site becomes a
    potential failure.  ``fire`` is a no-op at sites with no matching armed
    spec, so an injector with an empty spec list is inert.
    """

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._states: List[_SpecState] = [_SpecState(spec) for spec in specs]

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Arm one more spec; returns it for later inspection."""
        with self._lock:
            self._states.append(_SpecState(spec))
        return spec

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def fire(self, site: str, shard_id: Optional[int] = None) -> None:
        """Evaluate every armed spec at this boundary; maybe fault.

        Raises :class:`InjectedFault` / :class:`ShardKilled` or sleeps,
        according to the first spec that decides to fire (specs are
        evaluated in arming order).  Counters advance under a lock, so
        concurrent shard workers see consistent ``after`` / ``limit``
        accounting.
        """
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        firing: Optional[FaultSpec] = None
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.site != site:
                    continue
                if spec.shard_id is not None and shard_id != spec.shard_id:
                    continue
                if state.exhausted():
                    continue
                state.hits += 1
                if state.hits <= spec.after:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                state.fires += 1
                firing = spec
                break
        if firing is None:
            return
        if firing.action == "delay":
            time.sleep(firing.delay_s)
            return
        error_type = ShardKilled if firing.action == "kill" else InjectedFault
        where = f"{site}" if shard_id is None else f"{site} (shard {shard_id})"
        raise error_type(f"injected {firing.action} fault at {where}")

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def fired(self, site: Optional[str] = None) -> int:
        """Total firings so far (of one site, or all)."""
        with self._lock:
            return sum(
                state.fires
                for state in self._states
                if site is None or state.spec.site == site
            )

    def stats(self) -> Dict[str, int]:
        """Firing totals per site (only sites with armed specs appear)."""
        with self._lock:
            totals: Dict[str, int] = {}
            for state in self._states:
                totals[state.spec.site] = totals.get(state.spec.site, 0) + state.fires
            return totals


class FaultInjectingSink(DecisionSink):
    """A subscriber that faults on publish, per the injector's schedule.

    Subscribe one to a cluster (or shard) to model a broken downstream
    consumer: every delivery first fires the injector's ``"sink-publish"``
    site (attributed to the decision's shard), then forwards to the optional
    ``inner`` sink.  Used by the sink-isolation tests and the chaos fuzz to
    prove a permanently failing subscriber never affects returned decisions.
    """

    def __init__(
        self, injector: FaultInjector, inner: Optional[DecisionSink] = None
    ) -> None:
        self._injector = injector
        self._inner = inner

    @property
    def inner(self) -> Optional[DecisionSink]:
        return self._inner

    def publish(self, decision: "StreamDecision") -> None:
        self._injector.fire("sink-publish", getattr(decision, "shard_id", None))
        if self._inner is not None:
            self._inner.publish(decision)

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()

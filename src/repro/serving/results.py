"""Submission outcomes for the push-based serving front end.

The pull-only serving API returned one flat ``List[StreamDecision]`` from
``submit``, so an arrival that was not admitted returned an empty list,
indistinguishable from "accepted, nothing decided yet".
:class:`SubmitResult` makes every outcome explicit — ``status`` says what
admission did, ``decisions`` carries whatever a triggered drain emitted,
and the shard/queue-depth telemetry says where the arrival landed and how
loaded that shard is.

:class:`ConsumeSummary` is the bulk-ingest counterpart: a list of every
emitted decision (it *is* a list, so legacy consumers of
``ServingCluster.consume`` are untouched) that additionally tallies the
per-event admission outcomes the old API swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.serving.cluster import StreamDecision

__all__ = [
    "SUBMIT_STATUSES",
    "SubmitResult",
    "ConsumeSummary",
]

#: Every admission outcome a submission can have.  ``accepted`` — enqueued,
#: no decisions emitted yet; ``decided`` — enqueued and a triggered drain
#: emitted at least one decision; ``degraded`` — the shard's circuit breaker
#: was open (see :mod:`repro.serving.supervisor`) and the arrival was not
#: admitted.  A full shard queue is not an outcome: the submission serves
#: one round of that shard and is then admitted.
SUBMIT_STATUSES = ("accepted", "decided", "degraded")


@dataclass(frozen=True)
class SubmitResult:
    """Explicit outcome of one ``submit`` call.

    Attributes
    ----------
    status:
        One of :data:`SUBMIT_STATUSES`.
    stream_id:
        The stream the arrival was routed for.
    shard_id:
        The shard it was routed to (admission ran there even when the
        arrival was not admitted).
    decisions:
        Decisions emitted by drain rounds this submission triggered
        (``auto_drain`` or full-queue backpressure), in emission order.
        Empty unless ``status="decided"``.
    queue_depth:
        The shard's arrival-queue depth observed right after the call — the
        submitter-visible backpressure signal.
    """

    status: str
    stream_id: Hashable
    shard_id: int
    decisions: Tuple["StreamDecision", ...] = ()
    queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.status not in SUBMIT_STATUSES:
            raise ValueError(f"unknown submit status {self.status!r}")

    # ------------------------------------------------------------------ #
    # outcome predicates
    # ------------------------------------------------------------------ #
    @property
    def admitted(self) -> bool:
        """Whether the arrival entered its shard's queue."""
        return self.status in ("accepted", "decided")


class ConsumeSummary(List["StreamDecision"]):
    """Every decision a bulk ingest emitted, plus per-status admission counts.

    Subclasses ``list`` so existing consumers of
    :meth:`~repro.serving.cluster.ServingCluster.consume` — iteration,
    concatenation, ``extend`` — keep working; the new information rides along
    as the ``counts`` mapping and the per-status properties.
    """

    def __init__(self, decisions=(), counts: Dict[str, int] | None = None) -> None:
        super().__init__(decisions)
        self.counts: Dict[str, int] = {status: 0 for status in SUBMIT_STATUSES}
        if counts:
            self.counts.update(counts)

    def record(self, result: SubmitResult) -> None:
        """Fold one submission outcome in (decisions + status tally)."""
        self.counts[result.status] += 1
        self.extend(result.decisions)

    @property
    def accepted(self) -> int:
        return self.counts["accepted"]

    @property
    def decided(self) -> int:
        return self.counts["decided"]

    @property
    def degraded(self) -> int:
        return self.counts["degraded"]

    @property
    def submitted(self) -> int:
        """Total submissions the summary covers (all statuses)."""
        return sum(self.counts.values())

    @property
    def admitted(self) -> int:
        """Submissions that entered a shard queue."""
        return self.counts["accepted"] + self.counts["decided"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tallies = ", ".join(
            f"{status}={count}" for status, count in self.counts.items() if count
        )
        return f"ConsumeSummary({len(self)} decisions; {tallies or 'no submissions'})"

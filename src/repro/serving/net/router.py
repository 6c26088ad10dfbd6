"""Consistent-hash routing + live stream migration across cluster nodes.

One :class:`~repro.serving.cluster.ServingCluster` scales to the cores of
one machine; :class:`ClusterRouter` is the tier above it — N *independent*
clusters ("nodes", each with its own shards, executor and supervision)
behind one submit/flush/stats surface:

* **routing** — a stream id maps to ``stable_key_slot(stream_id, N)``,
  the same process-independent CRC32 bucketing the shards use, so
  placement is reproducible across routers and restarts.  A migration
  overlay (stream id → node) takes precedence, which is what lets
  placement *change* while the hash stays stable.
* **live migration** — :meth:`migrate_stream` detaches one stream
  (session + queued arrivals, via
  :meth:`~repro.serving.cluster.ServingCluster.extract_stream`) from its
  current node and installs it on another; serving resumes bit-for-bit
  (the single-stream application of the snapshot/restore parity the
  cluster matrix proves).  :meth:`drain_node` migrates *everything* off a
  node — rebalancing the departing streams across the survivors by the
  same consistent hash — so a node can be taken down mid-run with zero
  decision drift.
* **recovery** — the router keeps a per-node checkpoint (a
  :class:`~repro.serving.cluster.ClusterSnapshot`) plus a journal of every
  admission since; :meth:`recover_node` restores the checkpoint and
  replays the journal.  A failed node comes back serving the same
  streams with *at-least-once* delivery: every admitted arrival is
  re-served (replayed decisions are bit-identical, so duplicates are
  harmless repeats, and per-key outcomes match an unfailed reference).

The router is synchronous, like the cluster; put it behind
:class:`~repro.serving.aio.AsyncServingGateway` +
:class:`~repro.serving.net.server.ServingHTTPServer` per node for the
networked deployment (each node is its own process/host then, and the
router moves :class:`~repro.serving.cluster.StreamState` payloads, which
pickle cleanly).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.embeddings import stable_key_slot
from repro.serving.cluster import (
    ClusterSnapshot,
    ServingCluster,
    StreamDecision,
)
from repro.serving.results import SubmitResult
from repro.serving.sinks import DecisionSink

__all__ = ["ClusterRouter", "RouterSnapshot"]


@dataclass
class RouterSnapshot:
    """Opaque restorable copy of the router's state: nodes + placement."""

    node_snapshots: List[ClusterSnapshot]
    overrides: Dict[Hashable, int]


class ClusterRouter:
    """Hash-route streams across independent serving clusters.

    The nodes are caller-built (their shard counts, executors and engine
    configs may differ; decision parity across placements requires the
    same model/spec/engine config on every node, which is the intended
    deployment).  The router closes its nodes only when told to
    (:meth:`close`); it never builds them.
    """

    def __init__(self, nodes: Sequence[ServingCluster]) -> None:
        if not nodes:
            raise ValueError("ClusterRouter needs at least one node")
        self.nodes: List[ServingCluster] = list(nodes)
        #: Migration overlay: stream id → node index, consulted before the
        #: consistent hash.  Entries whose target equals the hash slot are
        #: dropped eagerly, so the overlay only holds actual deviations.
        self._overrides: Dict[Hashable, int] = {}
        self._lock = threading.Lock()
        #: Per-node recovery basis: the last checkpoint and every admitted
        #: (stream_id, event) since.  ``checkpoint + journal ≡ node state``
        #: is the invariant every mutation below maintains.
        self._checkpoints: List[ClusterSnapshot] = [
            node.snapshot() for node in self.nodes
        ]
        self._journals: List[List[Tuple[Hashable, object]]] = [
            [] for _ in self.nodes
        ]

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def node_index(self, stream_id: Hashable) -> int:
        """The node currently serving a stream (overlay, then hash)."""
        with self._lock:
            override = self._overrides.get(stream_id)
        if override is not None:
            return override
        return stable_key_slot(stream_id, len(self.nodes))

    def node_of(self, stream_id: Hashable) -> ServingCluster:
        return self.nodes[self.node_index(stream_id)]

    @property
    def overrides(self) -> Dict[Hashable, int]:
        """A copy of the migration overlay (stream id → node index)."""
        with self._lock:
            return dict(self._overrides)

    # ------------------------------------------------------------------ #
    # serving API (mirrors ServingCluster)
    # ------------------------------------------------------------------ #
    def submit(
        self, event, stream_id: Optional[Hashable] = None
    ) -> SubmitResult:
        """Route one arrival to its stream's node; journal admissions."""
        sid = event.source if stream_id is None else stream_id
        index = self.node_index(sid)
        result = self.nodes[index].submit(event, stream_id=stream_id)
        if result.admitted:
            with self._lock:
                self._journals[index].append((result.stream_id, event))
        return result

    def drain(self) -> List[StreamDecision]:
        return [sd for node in self.nodes for sd in node.drain()]

    def flush(self) -> List[StreamDecision]:
        return [sd for node in self.nodes for sd in node.flush()]

    def flush_stream(self, stream_id: Hashable) -> List[StreamDecision]:
        return self.node_of(stream_id).flush_stream(stream_id)

    def subscribe(self, sink: DecisionSink) -> DecisionSink:
        """Subscribe a sink to every node's emissions."""
        for node in self.nodes:
            node.subscribe(sink)
        return sink

    def unsubscribe(self, sink: DecisionSink) -> bool:
        removed = False
        for node in self.nodes:
            removed = node.unsubscribe(sink) or removed
        return removed

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # live migration
    # ------------------------------------------------------------------ #
    def migrate_stream(self, stream_id: Hashable, target: int) -> bool:
        """Move one live stream to another node; False if already there.

        Safe mid-run between submissions: the extracted state carries the
        session *and* any queued arrivals, so decisions before and after
        the move are bit-identical to an unmoved run.  Both touched nodes
        are re-checkpointed (their journals reset) so a later
        :meth:`recover_node` replays against post-migration placement.
        """
        if not 0 <= target < len(self.nodes):
            raise ValueError(f"no node {target} (have {len(self.nodes)})")
        source = self.node_index(stream_id)
        if source == target:
            return False
        state = self.nodes[source].extract_stream(stream_id)
        self.nodes[target].install_stream(state)
        with self._lock:
            if stable_key_slot(stream_id, len(self.nodes)) == target:
                self._overrides.pop(stream_id, None)
            else:
                self._overrides[stream_id] = target
        self._checkpoint_node(source)
        self._checkpoint_node(target)
        return True

    def drain_node(self, index: int) -> Dict[Hashable, int]:
        """Migrate every stream off a node; returns the new placements.

        Departing streams are rebalanced across the surviving nodes with
        the same consistent hash (over ``N - 1`` slots), so a re-run with
        the same survivors places them identically.  The node itself is
        left running and empty — decommission it with ``node.close()``
        when traffic has moved.
        """
        if len(self.nodes) < 2:
            raise ValueError("cannot drain the only node")
        survivors = [i for i in range(len(self.nodes)) if i != index]
        placements: Dict[Hashable, int] = {}
        for stream_id in self.nodes[index].stream_ids():
            target = survivors[stable_key_slot(stream_id, len(survivors))]
            self.migrate_stream(stream_id, target)
            placements[stream_id] = target
        return placements

    # ------------------------------------------------------------------ #
    # checkpoint / recovery
    # ------------------------------------------------------------------ #
    def _checkpoint_node(self, index: int) -> None:
        with self._lock:
            self._journals[index] = []
        self._checkpoints[index] = self.nodes[index].snapshot()

    def checkpoint(self) -> None:
        """Refresh every node's recovery basis (snapshot now, empty journal)."""
        for index in range(len(self.nodes)):
            self._checkpoint_node(index)

    def recover_node(self, index: int) -> List[StreamDecision]:
        """Rebuild a failed node: restore its checkpoint, replay its journal.

        Built for failures the node cannot heal by itself (lost or
        corrupted serving state, a wedged node) —
        :meth:`~repro.serving.cluster.ServingCluster.restore` rewinds the
        node to its checkpoint, then the journal replay re-serves every
        admitted arrival since the checkpoint.  Delivery is at-least-once: arrivals the dead node had
        already decided are decided again, bit-identically (subscribed
        sinks see repeats of the same decisions, never conflicting ones).
        Returns the decisions the replay emitted.
        """
        node = self.nodes[index]
        with self._lock:
            journal = list(self._journals[index])
        node.restore(self._checkpoints[index])
        emitted: List[StreamDecision] = []
        for stream_id, event in journal:
            emitted.extend(node.submit(event, stream_id=stream_id).decisions)
        return emitted

    # ------------------------------------------------------------------ #
    # snapshot / restore (whole-router)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> RouterSnapshot:
        """Deep-copy every node plus the placement overlay."""
        return RouterSnapshot(
            node_snapshots=[node.snapshot() for node in self.nodes],
            overrides=self.overrides,
        )

    def restore(self, snapshot: RouterSnapshot) -> None:
        if len(snapshot.node_snapshots) != len(self.nodes):
            raise ValueError(
                f"snapshot has {len(snapshot.node_snapshots)} nodes, router "
                f"has {len(self.nodes)}"
            )
        for node, node_snapshot in zip(self.nodes, snapshot.node_snapshots):
            node.restore(node_snapshot)
        with self._lock:
            self._overrides = dict(snapshot.overrides)
        self.checkpoint()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """``running`` if every node runs; else the most-degraded state."""
        states = {node.state for node in self.nodes}
        for state in ("closed", "draining"):
            if state in states:
                return state
        return "running"

    def stats(self) -> Dict[str, object]:
        """Merged cluster stats plus per-node breakdowns (pure JSON)."""
        node_stats = [node.stats() for node in self.nodes]
        return {
            "num_nodes": len(self.nodes),
            "state": self.state,
            "overrides": len(self.overrides),
            "num_sessions": sum(s["num_sessions"] for s in node_stats),
            "num_decided": sum(s["num_decided"] for s in node_stats),
            "drained": sum(s["drained"] for s in node_stats),
            "rounds": sum(s["rounds"] for s in node_stats),
            "items_per_s": sum(s["items_per_s"] for s in node_stats),
            "decisions_per_s": sum(s["decisions_per_s"] for s in node_stats),
            "journal_depths": [len(journal) for journal in self._journals],
            "nodes": node_stats,
        }

    def health(self) -> Dict[str, object]:
        """Merged fault-tolerance view across nodes (pure JSON)."""
        node_health = [node.health() for node in self.nodes]
        return {
            "nodes": node_health,
            "breaker_open_nodes": [
                index
                for index, view in enumerate(node_health)
                if view["breaker_open"]
            ],
            "failures": sum(view["failures"] for view in node_health),
            "restores": sum(view["restores"] for view in node_health),
            "lost_arrivals": sum(view["lost_arrivals"] for view in node_health),
        }

"""Streaming views over tangled key-value sequences.

The problem definition (Section III of the paper) assumes items *arrive
sequentially, one at a time*.  Training and offline evaluation can look at a
whole tangled sequence at once, but the deployment scenarios of Fig. 1 — a
router classifying live flows, a recommender profiling active users — consume
an unbounded item stream.  This module provides:

* :class:`StreamEvent` / :func:`replay` — replay a tangled sequence as a
  stream of timed arrival events,
* :func:`merge_streams` — merge several replays on a shared timeline,
* :class:`SlidingWindow` — a bounded window of the most recent items, the
  structure an online system uses to cap the cost of the correlation mask,
* :class:`KeyTracker` — per-key bookkeeping (observation counts, first/last
  arrival, completion) for a live stream.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.items import Item, KeyValueSequence, TangledSequence, ValueSpec


@dataclass(frozen=True)
class StreamEvent:
    """One arrival event: an item, its arrival time and its source stream."""

    time: float
    item: Item
    source: str = ""

    @property
    def key(self) -> Hashable:
        return self.item.key

    def __deepcopy__(self, memo) -> "StreamEvent":
        # Frozen (and so is its item): a deep copy may share it.
        return self


def replay(tangle: TangledSequence, source: str = "") -> Iterator[StreamEvent]:
    """Replay a tangled sequence as a chronologically ordered event stream."""
    name = source or tangle.name
    for item in tangle.items:
        yield StreamEvent(time=item.time, item=item, source=name)


def merge_streams(streams: Sequence[Iterable[StreamEvent]]) -> Iterator[StreamEvent]:
    """Merge independently ordered event streams into one chronological stream.

    Each input stream must itself be ordered by time; the merge is stable with
    respect to the input order for simultaneous events.
    """
    iterators = [iter(stream) for stream in streams]
    heap: List[Tuple[float, int, int, StreamEvent]] = []
    counter = 0
    for index, iterator in enumerate(iterators):
        event = next(iterator, None)
        if event is not None:
            heap.append((event.time, index, counter, event))
            counter += 1
    heapq.heapify(heap)
    while heap:
        time, index, _, event = heapq.heappop(heap)
        yield event
        following = next(iterators[index], None)
        if following is not None:
            if following.time < time:
                raise ValueError(f"stream {index} is not ordered by time")
            heapq.heappush(heap, (following.time, index, counter, following))
            counter += 1


class SlidingWindow:
    """A bounded, chronologically ordered window of the most recent items.

    Online deployments cannot keep the entire tangled history: the dynamic
    mask matrix grows quadratically with the number of retained items.  A
    sliding window bounds that cost while keeping the recent context the
    value correlation needs (sessions are by definition *time-adjacent*, so a
    modest window preserves them).

    Items can be evicted by count (``max_items``), by age (``max_age``
    relative to the newest item), or both.
    """

    def __init__(self, max_items: int = 0, max_age: float = 0.0) -> None:
        if max_items < 0 or max_age < 0:
            raise ValueError("max_items and max_age must be non-negative")
        if max_items == 0 and max_age == 0:
            raise ValueError("at least one of max_items / max_age must be set")
        self.max_items = max_items
        self.max_age = max_age
        self._items: Deque[Item] = deque()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    @property
    def items(self) -> List[Item]:
        return list(self._items)

    @property
    def newest_time(self) -> float:
        """Time of the newest item (``-inf`` while empty); :meth:`push`
        refuses anything older."""
        return self._items[-1].time if self._items else float("-inf")

    def __deepcopy__(self, memo) -> "SlidingWindow":
        """Copy the deque with one C-level call; the frozen items are shared."""
        new = copy.copy(self)
        memo[id(self)] = new
        new._items = deque(self._items)
        return new

    def push(self, item: Item) -> List[Item]:
        """Add one item; returns the items evicted by this push."""
        if item.time < self.newest_time:
            raise ValueError("items must be pushed in chronological order")
        self._items.append(item)
        evicted: List[Item] = []
        if self.max_items:
            while len(self._items) > self.max_items:
                evicted.append(self._items.popleft())
        if self.max_age:
            horizon = item.time - self.max_age
            while self._items and self._items[0].time < horizon:
                evicted.append(self._items.popleft())
        self.evicted += len(evicted)
        return evicted

    def as_tangle(self, labels: Dict[Hashable, int], spec: ValueSpec, name: str = "window") -> TangledSequence:
        """Materialise the current window as a tangled sequence.

        Keys present in the window but missing from ``labels`` get label 0 —
        at serving time true labels are unknown and only used for bookkeeping.
        """
        window_labels = {item.key: labels.get(item.key, 0) for item in self._items}
        return TangledSequence(list(self._items), window_labels, spec, name=name)


@dataclass
class KeyState:
    """Live statistics of one key observed on a stream."""

    key: Hashable
    first_time: float
    last_time: float
    observations: int = 1
    done: bool = False

    def update(self, event: StreamEvent) -> None:
        self.observations += 1
        self.last_time = event.time

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time


class KeyTracker:
    """Track per-key observation counts and lifetimes over a live stream.

    The tracker is what a serving system uses to answer "how many items of
    flow ``k`` have we seen so far?" (the paper's ``n_k``) without retaining
    the items themselves.
    """

    def __init__(self, idle_timeout: float = 0.0) -> None:
        if idle_timeout < 0:
            raise ValueError("idle_timeout must be non-negative")
        self.idle_timeout = idle_timeout
        self._states: Dict[Hashable, KeyState] = {}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._states

    def __deepcopy__(self, memo) -> "KeyTracker":
        """Copy the state map and each flat :class:`KeyState` (keys are shared)."""
        new = copy.copy(self)
        memo[id(self)] = new
        new._states = {key: copy.copy(state) for key, state in self._states.items()}
        return new

    def observe(self, event: StreamEvent) -> KeyState:
        """Record one arrival and return the key's updated state."""
        state = self._states.get(event.key)
        if state is None:
            state = KeyState(key=event.key, first_time=event.time, last_time=event.time)
            self._states[event.key] = state
        else:
            state.update(event)
        return state

    def observations(self, key: Hashable) -> int:
        """Number of items observed for ``key`` (0 if never seen)."""
        state = self._states.get(key)
        return state.observations if state else 0

    def mark_done(self, key: Hashable) -> None:
        """Mark a key as finished (halted and classified, or flow terminated)."""
        if key in self._states:
            self._states[key].done = True

    def active_keys(self, now: Optional[float] = None) -> List[Hashable]:
        """Keys not yet done and (if a timeout is set) not idle at time ``now``."""
        keys: List[Hashable] = []
        for key, state in self._states.items():
            if state.done:
                continue
            if self.idle_timeout and now is not None and now - state.last_time > self.idle_timeout:
                continue
            keys.append(key)
        return keys

    def expire_idle(self, now: float) -> List[Hashable]:
        """Mark idle keys as done and return them (flow-timeout semantics)."""
        if not self.idle_timeout:
            return []
        expired = [
            key
            for key, state in self._states.items()
            if not state.done and now - state.last_time > self.idle_timeout
        ]
        for key in expired:
            self._states[key].done = True
        return expired

    def states(self) -> Dict[Hashable, KeyState]:
        """A snapshot of all tracked key states."""
        return dict(self._states)


def stream_prefixes(
    tangle: TangledSequence, lengths: Sequence[int]
) -> Dict[int, TangledSequence]:
    """Materialise tangled prefixes at the requested item counts.

    Convenience used by analyses that probe a model at several observation
    depths (e.g. the Fig. 10 attention-score profile).
    """
    prefixes: Dict[int, TangledSequence] = {}
    for length in lengths:
        if length < 0:
            raise ValueError("prefix lengths must be non-negative")
        prefixes[int(length)] = tangle.prefix(int(length))
    return prefixes

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
  structure an online system uses to cap the cost of the correlation mask.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Iterable, Iterator, List, Sequence, Tuple

from repro.data.items import Item, TangledSequence, ValueSpec


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

    The window holds at most ``max_items`` items; each push beyond that
    evicts the oldest.
    """

    def __init__(self, max_items: int) -> None:
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        self.max_items = max_items
        self._items: Deque[Item] = deque()

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
        if len(self._items) > self.max_items:
            return [self._items.popleft()]
        return []

    def as_tangle(self, spec: ValueSpec, name: str = "window") -> TangledSequence:
        """Materialise the current window as a tangled sequence.

        Every key gets label 0: at serving time true labels are unknown, and
        a tangle's labels are only used for bookkeeping.
        """
        labels = {item.key: 0 for item in self._items}
        return TangledSequence(list(self._items), labels, spec, name=name)

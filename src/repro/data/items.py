"""Core containers for tangled key-value sequence data."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ValueSpec:
    """Schema of the value field ``v = (v_1, ..., v_l)`` of a dataset.

    Attributes
    ----------
    field_names:
        Human-readable name of each value dimension (e.g. ``("size", "direction")``).
    cardinalities:
        Number of distinct categorical codes per dimension.  Values stored on
        :class:`Item` objects are integer codes in ``[0, cardinality)``.
    session_field:
        Index of the dimension whose runs of equal values define *sessions*
        (bursts).  For the traffic datasets this is the transmission
        direction; for MovieLens it is the movie genre.
    """

    field_names: Tuple[str, ...]
    cardinalities: Tuple[int, ...]
    session_field: int

    def __post_init__(self) -> None:
        if len(self.field_names) != len(self.cardinalities):
            raise ValueError("field_names and cardinalities must have the same length")
        if not self.field_names:
            raise ValueError("a value spec needs at least one field")
        if not 0 <= self.session_field < len(self.field_names):
            raise ValueError(
                f"session_field {self.session_field} out of range for {len(self.field_names)} fields"
            )
        for name, card in zip(self.field_names, self.cardinalities):
            if card <= 0:
                raise ValueError(f"cardinality of field {name!r} must be positive")

    @property
    def num_fields(self) -> int:
        return len(self.field_names)

    def validate_value(self, value: Sequence[int]) -> None:
        """Raise ``ValueError`` if ``value`` does not conform to the spec."""
        if len(value) != self.num_fields:
            raise ValueError(
                f"value has {len(value)} fields, spec expects {self.num_fields}"
            )
        for name, card, code in zip(self.field_names, self.cardinalities, value):
            if not 0 <= int(code) < card:
                raise ValueError(
                    f"value code {code} for field {name!r} outside [0, {card})"
                )


def _prefix_length(upto: Optional[int], length: int) -> int:
    """Number of items in ``sequence[:upto]`` for a sequence of ``length`` items."""
    if upto is None:
        return length
    if upto < 0:
        raise ValueError(f"prefix length must be non-negative, got {upto}")
    return min(upto, length)


@dataclass(frozen=True)
class Item:
    """One key-value item ``<k, v>`` with its arrival time.

    ``value`` holds integer categorical codes, one per dimension of the
    dataset's :class:`ValueSpec` (the dataset generators emit codes
    directly, e.g. a packet-size bucket rather than a size in bytes).
    """

    key: Hashable
    value: Tuple[int, ...]
    time: float

    def __deepcopy__(self, memo) -> "Item":
        # Frozen, so a deep copy may share it: serving-state copies (shard
        # checkpoints, snapshots) hold every windowed item and skip them all.
        return self

    def field(self, index: int) -> int:
        """Return the integer code of value dimension ``index``."""
        return int(self.value[index])


@dataclass
class KeyValueSequence:
    """All items sharing one key, in chronological order, plus its label."""

    key: Hashable
    items: List[Item] = field(default_factory=list)
    label: Optional[int] = None

    def __post_init__(self) -> None:
        for item in self.items:
            if item.key != self.key:
                raise ValueError(
                    f"item with key {item.key!r} added to sequence for key {self.key!r}"
                )
        self.items.sort(key=lambda item: item.time)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def append(self, item: Item) -> None:
        """Append an item, enforcing key consistency and time monotonicity."""
        if item.key != self.key:
            raise ValueError(f"item key {item.key!r} != sequence key {self.key!r}")
        if self.items and item.time < self.items[-1].time:
            raise ValueError("items must be appended in chronological order")
        self.items.append(item)

    def prefix_length(self, upto: Optional[int] = None) -> int:
        """Number of items in ``self[:upto]``; ``None`` means all of them.

        The rule of :meth:`TangledSequence.prefix_length`: a length past the
        end is capped and a negative one raises ``ValueError``.
        """
        return _prefix_length(upto, len(self.items))

    def prefix(self, length: int) -> "KeyValueSequence":
        """Return a new sequence holding only the first ``length`` items."""
        length = self.prefix_length(length)
        return KeyValueSequence(self.key, self.items[:length], self.label)

    def times(self) -> List[float]:
        return [item.time for item in self.items]


class TangledSequence:
    """A chronologically ordered mixture of several key-value sequences.

    This is the unit the KVEC model consumes: one tangled sequence per
    "scenario" (e.g. the concurrent flows seen by one router port, or a group
    of users active in the same period).  The class maintains, for every item,
    its position within its own key-value sequence, which the input-embedding
    layer needs for the relative-position embedding.
    """

    def __init__(
        self,
        items: Iterable[Item],
        labels: Dict[Hashable, int],
        spec: ValueSpec,
        name: str = "",
    ) -> None:
        self.items: List[Item] = sorted(items, key=lambda item: item.time)
        self.labels: Dict[Hashable, int] = dict(labels)
        self.spec = spec
        self.name = name

        self._positions: List[int] = []
        self._key_order: Dict[Hashable, int] = {}
        counts: Dict[Hashable, int] = {}
        for item in self.items:
            self.spec.validate_value(item.value)
            if item.key not in self.labels:
                raise ValueError(f"item key {item.key!r} has no label")
            if item.key not in self._key_order:
                self._key_order[item.key] = len(self._key_order)
            position = counts.get(item.key, 0)
            self._positions.append(position)
            counts[item.key] = position + 1
        self._lengths = counts

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Item:
        return self.items[index]

    def __repr__(self) -> str:
        return (
            f"TangledSequence(name={self.name!r}, items={len(self.items)}, "
            f"keys={self.num_keys})"
        )

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def keys(self) -> List[Hashable]:
        """Keys in order of first appearance."""
        return list(self._key_order)

    @property
    def num_keys(self) -> int:
        return len(self._key_order)

    def key_index(self, key: Hashable) -> int:
        """Return the 0-based index of ``key`` by order of first appearance."""
        return self._key_order[key]

    def position_in_key_sequence(self, index: int) -> int:
        """Return the item's 0-based position within its own key sequence."""
        return self._positions[index]

    def sequence_length(self, key: Hashable) -> int:
        """Number of items of ``key`` in this tangled sequence."""
        return self._lengths.get(key, 0)

    def label_of(self, key: Hashable) -> int:
        return self.labels[key]

    def per_key_sequences(self) -> Dict[Hashable, KeyValueSequence]:
        """Split the tangled stream back into its per-key sequences."""
        sequences: Dict[Hashable, KeyValueSequence] = {
            key: KeyValueSequence(key, [], self.labels[key]) for key in self.keys
        }
        for item in self.items:
            sequences[item.key].append(item)
        return sequences

    def prefix_length(self, upto: Optional[int] = None) -> int:
        """Number of items in ``self[:upto]``; ``None`` means all of them.

        The one rule for every ``upto``/``max_items``/``prefix`` truncation,
        shared with :meth:`KeyValueSequence.prefix_length`: a length past
        the end is capped at ``len(self)`` and a negative one is rejected
        (as a slice it would count from the end).
        """
        return _prefix_length(upto, len(self.items))

    def prefix(self, length: int) -> "TangledSequence":
        """Return a tangled sequence containing only the first ``length`` items."""
        length = self.prefix_length(length)
        items = self.items[:length]
        keys = {item.key for item in items}
        labels = {key: self.labels[key] for key in keys}
        return TangledSequence(items, labels, self.spec, name=f"{self.name}[:{length}]")

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` when violated."""
        previous_time = float("-inf")
        for item in self.items:
            if item.time < previous_time:
                raise ValueError("items are not in chronological order")
            previous_time = item.time
            self.spec.validate_value(item.value)
        for key in self.keys:
            if key not in self.labels:
                raise ValueError(f"missing label for key {key!r}")

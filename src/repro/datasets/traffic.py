"""Synthetic network-traffic key-value sequence generator.

Stands in for USTC-TFC2016, Traffic-FG and Traffic-App, which are either
large downloads or unreleased campus captures.  Each *flow* (key-value
sequence) is a packet stream whose value vector is ``(packet size bucket,
direction)`` — exactly the representation the paper extracts from those
datasets — and whose key is a synthetic five-tuple identifier.

What makes the generator a faithful substitute is that it reproduces the
structural properties KVEC exploits:

* **class-conditional burst structure** — each application class has its own
  distribution of burst lengths and direction-switch behaviour, so sessions
  (bursts) are discriminative;
* **early discriminative signal** — the first ``handshake_length`` packets of
  a flow follow a class-specific size template (the paper cites [48]: "the
  first few packets of a flow carry crucial information for identifying it");
* **shared cross-flow patterns** — flows of the same class share size/burst
  profiles, so *value correlations across concurrent flows* are informative,
  which is the property the tangled-sequence attention is designed to use;
* **noise** — sizes and burst lengths are sampled, and a fraction of packets
  is replaced by uniform noise, so classification from very few packets is
  genuinely uncertain.

Packet size codes are drawn by one :class:`~repro.datasets.base.CategoricalSampler`
per class and direction, built when the class profile is.  Each draw equals
the ``Generator.choice(num_size_buckets, p=...)`` it replaces and consumes
the same single ``random()``, so the flows are identical draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.datasets.base import CategoricalSampler, GeneratedDataset

#: Direction codes (client->server / server->client).
DIRECTION_UPLINK = 0
DIRECTION_DOWNLINK = 1


@dataclass
class SyntheticTrafficConfig:
    """Configuration of the synthetic traffic generator.

    The defaults correspond to the USTC-TFC2016 analogue; the factory
    functions below override them to match each dataset's Table I statistics.
    """

    name: str = "USTC-TFC2016"
    num_classes: int = 9
    num_flows: int = 320
    mean_flow_length: float = 31.2
    min_flow_length: int = 10
    mean_burst_length: float = 8.3
    num_size_buckets: int = 16
    handshake_length: int = 4
    noise_probability: float = 0.08
    mean_interarrival: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.num_flows < self.num_classes:
            raise ValueError("need at least one flow per class")
        if self.mean_flow_length < self.min_flow_length:
            raise ValueError("mean_flow_length must be >= min_flow_length")
        if self.mean_burst_length < 1:
            raise ValueError("mean_burst_length must be >= 1")


def traffic_value_spec(num_size_buckets: int = 16) -> ValueSpec:
    """Value schema of the traffic datasets: (size bucket, direction)."""
    return ValueSpec(
        field_names=("size", "direction"),
        cardinalities=(num_size_buckets, 2),
        session_field=1,
    )


class _ClassProfile:
    """Class-conditional generative profile of one application type."""

    def __init__(self, label: int, config: SyntheticTrafficConfig, rng: np.random.Generator) -> None:
        self.label = label
        buckets = config.num_size_buckets
        # Size profile per direction: a Dirichlet-random distribution with a
        # class-specific concentration peak, so different classes prefer
        # different packet-size regions.
        peak_up = rng.integers(0, buckets)
        peak_down = rng.integers(0, buckets)
        self.size_codes = {
            DIRECTION_UPLINK: CategoricalSampler(_peaked_distribution(buckets, peak_up, rng)),
            DIRECTION_DOWNLINK: CategoricalSampler(_peaked_distribution(buckets, peak_down, rng)),
        }
        # Burst lengths per direction: class-specific Poisson means centred on
        # the dataset's average session length.
        base = config.mean_burst_length
        self.burst_mean = {
            DIRECTION_UPLINK: max(1.0, base * float(rng.uniform(0.5, 1.5))),
            DIRECTION_DOWNLINK: max(1.0, base * float(rng.uniform(0.5, 1.5))),
        }
        # Handshake template: the first few packets have a fixed class
        # signature (size codes + directions).
        self.handshake: List[Tuple[int, int]] = [
            (int(rng.integers(0, buckets)), int(rng.integers(0, 2)))
            for _ in range(config.handshake_length)
        ]
        # Probability the flow starts with an uplink burst.
        self.start_uplink = float(rng.uniform(0.3, 0.7))


def _peaked_distribution(size: int, peak: int, rng: np.random.Generator) -> np.ndarray:
    """A probability vector concentrated around ``peak`` with random spread."""
    positions = np.arange(size)
    width = rng.uniform(0.8, 2.5)
    weights = np.exp(-((positions - peak) ** 2) / (2.0 * width**2)) + 0.02
    weights *= rng.uniform(0.5, 1.5, size=size)
    return weights / weights.sum()


def generate_traffic_dataset(config: SyntheticTrafficConfig) -> GeneratedDataset:
    """Generate a synthetic traffic dataset according to ``config``."""
    rng = np.random.default_rng(config.seed)
    spec = traffic_value_spec(config.num_size_buckets)
    profiles = [_ClassProfile(c, config, rng) for c in range(config.num_classes)]

    sequences: List[KeyValueSequence] = []
    for flow_index in range(config.num_flows):
        label = flow_index % config.num_classes
        profile = profiles[label]
        key = f"flow-{config.name}-{flow_index}"
        items = _generate_flow(key, profile, config, rng)
        sequences.append(KeyValueSequence(key, items, label))

    class_names = tuple(f"app-{c}" for c in range(config.num_classes))
    return GeneratedDataset(
        name=config.name,
        sequences=sequences,
        spec=spec,
        num_classes=config.num_classes,
        class_names=class_names,
    )


def _generate_flow(
    key: str,
    profile: _ClassProfile,
    config: SyntheticTrafficConfig,
    rng: np.random.Generator,
) -> List[Item]:
    """Generate the packet items of one flow."""
    length = max(
        config.min_flow_length,
        int(rng.poisson(max(config.mean_flow_length - config.min_flow_length, 1)))
        + config.min_flow_length,
    )
    items: List[Item] = []
    time = float(rng.exponential(config.mean_interarrival))

    # Class-specific handshake prefix.
    for size_code, direction in profile.handshake:
        items.append(_packet(key, size_code, direction, time, config, rng))
        time += float(rng.exponential(config.mean_interarrival))
        if len(items) >= length:
            return items

    # Alternating bursts with class-conditional lengths and sizes.
    direction = (
        DIRECTION_UPLINK if rng.random() < profile.start_uplink else DIRECTION_DOWNLINK
    )
    while len(items) < length:
        burst_length = 1 + int(rng.poisson(max(profile.burst_mean[direction] - 1, 0.1)))
        for _ in range(burst_length):
            size_code = profile.size_codes[direction](rng)
            items.append(_packet(key, size_code, direction, time, config, rng))
            time += float(rng.exponential(config.mean_interarrival))
            if len(items) >= length:
                break
        direction = DIRECTION_DOWNLINK if direction == DIRECTION_UPLINK else DIRECTION_UPLINK
    return items


def _packet(
    key: str,
    size_code: int,
    direction: int,
    time: float,
    config: SyntheticTrafficConfig,
    rng: np.random.Generator,
) -> Item:
    """Build one packet item, possibly replaced by uniform noise."""
    if rng.random() < config.noise_probability:
        size_code = int(rng.integers(0, config.num_size_buckets))
        direction = int(rng.integers(0, 2))
    return Item(key=key, value=(int(size_code), int(direction)), time=time)


# --------------------------------------------------------------------------- #
# dataset factories matching Table I
# --------------------------------------------------------------------------- #
def make_ustc_tfc2016(num_flows: int = 320, seed: int = 7) -> GeneratedDataset:
    """USTC-TFC2016 analogue: 9 classes, avg |Sk| ~ 31, avg burst ~ 8."""
    config = SyntheticTrafficConfig(
        name="USTC-TFC2016",
        num_classes=9,
        num_flows=num_flows,
        mean_flow_length=31.2,
        mean_burst_length=8.3,
        seed=seed,
    )
    return generate_traffic_dataset(config)


def make_traffic_fg(num_flows: int = 600, seed: int = 11) -> GeneratedDataset:
    """Traffic-FG analogue: 12 fine-grained service classes, avg |Sk| ~ 50."""
    config = SyntheticTrafficConfig(
        name="Traffic-FG",
        num_classes=12,
        num_flows=num_flows,
        mean_flow_length=50.7,
        mean_burst_length=2.4,
        seed=seed,
    )
    return generate_traffic_dataset(config)


def make_traffic_app(num_flows: int = 500, seed: int = 13) -> GeneratedDataset:
    """Traffic-App analogue: 10 application classes, avg |Sk| ~ 57."""
    config = SyntheticTrafficConfig(
        name="Traffic-App",
        num_classes=10,
        num_flows=num_flows,
        mean_flow_length=57.5,
        mean_burst_length=2.7,
        seed=seed,
    )
    return generate_traffic_dataset(config)

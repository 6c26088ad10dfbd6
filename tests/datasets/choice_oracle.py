"""The dataset generators as they drew categorical codes with ``Generator.choice``.

:class:`repro.datasets.base.CategoricalSampler` replaced every per-item
``rng.choice(n, p=p)`` of the traffic and MovieLens generators.  This module
keeps the replaced per-flow and per-user loops as the oracle the generators
must equal exactly, and is not collected by pytest:

* :func:`generate_traffic_dataset` draws each size code with
  ``rng.choice(num_size_buckets, p=...)``, reading the probabilities from
  the class profile's samplers;
* :func:`generate_movielens_dataset` draws genre and movie codes with
  ``rng.choice`` and clips ratings with ``np.clip``;
* :func:`choice_generators` swaps both into their modules, so every
  ``make_*`` factory and ``DATASET_BUILDERS`` entry generates through them.

The Synthetic-Traffic generator draws no categorical code, so it has no
oracle of its own here.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.data.items import Item, KeyValueSequence
from repro.datasets import movielens, traffic
from repro.datasets.base import GeneratedDataset
from repro.datasets.movielens import GENRES, SyntheticMovieLensConfig, movielens_value_spec
from repro.datasets.traffic import (
    DIRECTION_DOWNLINK,
    DIRECTION_UPLINK,
    SyntheticTrafficConfig,
    _ClassProfile,
    traffic_value_spec,
)


@contextmanager
def choice_generators() -> Iterator[None]:
    """Within the block, the dataset modules generate through the oracles."""
    saved = traffic.generate_traffic_dataset, movielens.generate_movielens_dataset
    traffic.generate_traffic_dataset = generate_traffic_dataset
    movielens.generate_movielens_dataset = generate_movielens_dataset
    try:
        yield
    finally:
        traffic.generate_traffic_dataset, movielens.generate_movielens_dataset = saved


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
def generate_traffic_dataset(config: SyntheticTrafficConfig) -> GeneratedDataset:
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


def _generate_flow(key, profile, config, rng) -> List[Item]:
    length = max(
        config.min_flow_length,
        int(rng.poisson(max(config.mean_flow_length - config.min_flow_length, 1)))
        + config.min_flow_length,
    )
    items: List[Item] = []
    time = float(rng.exponential(config.mean_interarrival))

    for size_code, direction in profile.handshake:
        items.append(_packet(key, size_code, direction, time, config, rng))
        time += float(rng.exponential(config.mean_interarrival))
        if len(items) >= length:
            return items

    direction = (
        DIRECTION_UPLINK if rng.random() < profile.start_uplink else DIRECTION_DOWNLINK
    )
    while len(items) < length:
        burst_length = 1 + int(rng.poisson(max(profile.burst_mean[direction] - 1, 0.1)))
        for _ in range(burst_length):
            size_probs = profile.size_codes[direction].p
            size_code = int(rng.choice(config.num_size_buckets, p=size_probs))
            items.append(_packet(key, size_code, direction, time, config, rng))
            time += float(rng.exponential(config.mean_interarrival))
            if len(items) >= length:
                break
        direction = DIRECTION_DOWNLINK if direction == DIRECTION_UPLINK else DIRECTION_UPLINK
    return items


def _packet(key, size_code, direction, time, config, rng) -> Item:
    if rng.random() < config.noise_probability:
        size_code = int(rng.integers(0, config.num_size_buckets))
        direction = int(rng.integers(0, 2))
    return Item(key=key, value=(int(size_code), int(direction)), time=time)


# --------------------------------------------------------------------------- #
# MovieLens
# --------------------------------------------------------------------------- #
def generate_movielens_dataset(config: SyntheticMovieLensConfig) -> GeneratedDataset:
    rng = np.random.default_rng(config.seed)
    spec = movielens_value_spec(config)
    num_genres = len(GENRES)

    class_preferences = []
    for label in range(2):
        concentration = np.ones(num_genres)
        favoured = rng.choice(num_genres, size=3, replace=False)
        concentration[favoured] += config.preference_sharpness
        class_preferences.append(rng.dirichlet(concentration))

    movie_popularity = [
        rng.dirichlet(np.ones(config.num_movies_per_genre) * 0.6)
        for _ in range(num_genres)
    ]
    rating_bias = rng.uniform(-0.7, 0.7, size=(2, num_genres))

    sequences: List[KeyValueSequence] = []
    for user_index in range(config.num_users):
        label = user_index % 2
        key = f"user-{user_index}"
        items = _generate_user_stream(
            key,
            label,
            config,
            rng,
            class_preferences[label],
            movie_popularity,
            rating_bias[label],
        )
        sequences.append(KeyValueSequence(key, items, label))

    return GeneratedDataset(
        name=config.name,
        sequences=sequences,
        spec=spec,
        num_classes=2,
        class_names=("female", "male"),
    )


def _generate_user_stream(
    key, label, config, rng, genre_preference, movie_popularity, rating_bias
) -> List[Item]:
    length = max(
        config.min_sequence_length,
        int(rng.poisson(max(config.mean_sequence_length - config.min_sequence_length, 1)))
        + config.min_sequence_length,
    )
    num_genres = len(GENRES)
    items: List[Item] = []
    time = float(rng.exponential(1.0))
    genre = int(rng.choice(num_genres, p=genre_preference))
    for _ in range(length):
        if items and rng.random() >= config.genre_stickiness:
            genre = int(rng.choice(num_genres, p=genre_preference))
        movie_within = int(
            rng.choice(config.num_movies_per_genre, p=movie_popularity[genre])
        )
        movie_id = genre * config.num_movies_per_genre + movie_within
        rating_centre = 3.0 + rating_bias[genre]
        rating = int(np.clip(round(rng.normal(rating_centre, 1.0)), 1, config.num_ratings))
        items.append(
            Item(key=key, value=(movie_id, genre, rating - 1), time=time)
        )
        time += float(rng.exponential(1.0))
    return items

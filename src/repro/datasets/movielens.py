"""Synthetic MovieLens-1M analogue: user rating streams with gender labels.

MovieLens-1M is public but cannot be downloaded offline, so this generator
produces user/movie rating sequences with the same schema the paper extracts:
the key is the user id, the value is ``(movie id, movie genre, rating)`` and
the label is the user's (binary) gender.  The properties KVEC relies on are
reproduced:

* **genre sessions** — users watch short runs of same-genre movies (the paper
  measures an average session length of 1.7 on MovieLens-1M), driven by a
  sticky genre Markov chain;
* **class-conditional preferences** — the two user classes have different
  genre-preference distributions and slightly different rating behaviour, so
  a user's class is predictable from enough ratings but uncertain early;
* **shared popularity structure** — movie popularity within a genre is shared
  across users, so similar users produce locally similar subsequences
  (the inter-sequence correlation the paper's user-profiling example uses).

Genre and movie codes are drawn by :class:`~repro.datasets.base.CategoricalSampler`
objects (one per class preference and one per genre's popularity), built
once per generated dataset.  Each draw equals the
``Generator.choice(n, p=...)`` it replaces and consumes the same single
``random()``, so the streams are identical draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.items import Item, KeyValueSequence, ValueSpec
from repro.datasets.base import CategoricalSampler, GeneratedDataset

#: Genre labels used by the generator (a subset of MovieLens' 18 genres).
GENRES = (
    "action",
    "comedy",
    "drama",
    "romance",
    "thriller",
    "sci-fi",
    "animation",
    "documentary",
)


@dataclass
class SyntheticMovieLensConfig:
    """Configuration of the MovieLens-1M analogue generator."""

    name: str = "MovieLens-1M"
    num_users: int = 200
    mean_sequence_length: float = 163.5
    min_sequence_length: int = 20
    num_movies_per_genre: int = 25
    genre_stickiness: float = 0.42
    num_ratings: int = 5
    preference_sharpness: float = 3.0
    seed: int = 23

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ValueError("need at least two users")
        if not 0.0 <= self.genre_stickiness < 1.0:
            raise ValueError("genre_stickiness must be in [0, 1)")
        if self.mean_sequence_length < self.min_sequence_length:
            raise ValueError("mean_sequence_length must be >= min_sequence_length")


def movielens_value_spec(config: SyntheticMovieLensConfig) -> ValueSpec:
    """Value schema: (movie id, genre, rating); genre runs define sessions."""
    num_movies = len(GENRES) * config.num_movies_per_genre
    return ValueSpec(
        field_names=("movie", "genre", "rating"),
        cardinalities=(num_movies, len(GENRES), config.num_ratings),
        session_field=1,
    )


def make_movielens_1m(num_users: int = 200, seed: int = 23, **overrides) -> GeneratedDataset:
    """Generate the MovieLens-1M analogue with ``num_users`` users."""
    config = SyntheticMovieLensConfig(num_users=num_users, seed=seed, **overrides)
    return generate_movielens_dataset(config)


def generate_movielens_dataset(config: SyntheticMovieLensConfig) -> GeneratedDataset:
    """Generate the dataset described by ``config``."""
    rng = np.random.default_rng(config.seed)
    spec = movielens_value_spec(config)
    num_genres = len(GENRES)

    # Two class-conditional genre preference distributions.  They overlap
    # substantially (both classes watch everything) but with different peaks.
    class_genres = []
    for label in range(2):
        concentration = np.ones(num_genres)
        favoured = rng.choice(num_genres, size=3, replace=False)
        concentration[favoured] += config.preference_sharpness
        class_genres.append(CategoricalSampler(rng.dirichlet(concentration)))

    # Genre-conditional movie popularity shared by all users.
    movie_codes = [
        CategoricalSampler(rng.dirichlet(np.ones(config.num_movies_per_genre) * 0.6))
        for _ in range(num_genres)
    ]
    # Class-conditional mean rating per genre (mild signal).
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
            class_genres[label],
            movie_codes,
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
    key: str,
    label: int,
    config: SyntheticMovieLensConfig,
    rng: np.random.Generator,
    genre_of: CategoricalSampler,
    movie_codes: List[CategoricalSampler],
    rating_bias: np.ndarray,
) -> List[Item]:
    """Generate one user's chronological rating stream."""
    length = max(
        config.min_sequence_length,
        int(rng.poisson(max(config.mean_sequence_length - config.min_sequence_length, 1)))
        + config.min_sequence_length,
    )
    items: List[Item] = []
    time = float(rng.exponential(1.0))
    genre = genre_of(rng)
    for _ in range(length):
        # Sticky genre chain: with probability ``genre_stickiness`` stay in
        # the current genre (continuing the session), otherwise re-sample.
        if items and rng.random() >= config.genre_stickiness:
            genre = genre_of(rng)
        movie_within = movie_codes[genre](rng)
        movie_id = genre * config.num_movies_per_genre + movie_within
        rating_centre = 3.0 + rating_bias[genre]
        rating = min(max(round(rng.normal(rating_centre, 1.0)), 1), config.num_ratings)
        items.append(
            Item(key=key, value=(movie_id, genre, rating - 1), time=time)
        )
        time += float(rng.exponential(1.0))
    return items

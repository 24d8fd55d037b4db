"""Deterministic stream derivation for reproducible experiments.

Every random quantity in the library is drawn from a generator keyed by
(master seed, purpose tag, index). Streams derived this way are independent
and reproducible regardless of evaluation order, so replications can be
aggregated bit-identically no matter how they are scheduled.
"""

from __future__ import annotations

import numbers

import numpy as np

# Purpose tags for derived streams. Values are part of the reproducibility
# contract: changing them changes every downstream sample.
TAG_TRAJECTORY = 1
TAG_PROBES = 2
TAG_RADIUS = 3
TAG_DISTANCE = 4
TAG_TAIL = 5
TAG_EXPERIMENT = 6


def _integer(name: str, value) -> int:
    """value as an int; a float, string or bool raises ValueError rather than truncating."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    """The SeedSequence of (seed, key...). Every seed enters numpy here, so a bad one is named once."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=key)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, key...)."""
    return np.random.default_rng(_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for (seed, key...), usable as a trajectory seed."""
    return int(_sequence(seed, key).generate_state(1, dtype=np.uint64)[0])

"""A fixed kernel that measures how fast the machine runs right now.

On a shared host the same dyngof operation can take 20% longer for
minutes at a time. The probe does a fixed amount of the kind of work
dyngof spends its time on (per-probe numpy slicing and dict loops, dense
per-step distributions, an endpoint-urn sampling loop) in the benchmark's
own frozen code, which no change to the package alters. Timed between
operations in the same run, it gives the machine speed that the
operation times are rescaled by.
"""

from __future__ import annotations

import time

import numpy as np

N = 1500
PROBES = range(40, N, 6)
WIDTH = 150
URN_STEPS = 4000


def _choices() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.array([rng.integers(1, t) for t in range(2, N + 1)], dtype=np.int64)


CHOICES = _choices()


def _windowed_tv() -> float:
    total = 0.0
    for r in PROBES:
        window = CHOICES[r - 2 : r - 2 + WIDTH]
        kept = window[window <= r - 1]
        vertices, hits = np.unique(kept, return_counts=True)
        counts = {int(v): int(c) for v, c in zip(vertices, hits)}
        deg = np.ones(r - 1)
        deg[0] = 2
        deg += np.bincount(CHOICES[: r - 2] - 1, minlength=r - 1)
        mass = deg / deg.sum()
        acc = 1.0
        for v, c in counts.items():
            p = mass[v - 1]
            acc += abs(c / kept.size - p) - p
        total += 0.5 * acc
    return total


def _dense_steps() -> float:
    deg = np.zeros(N, dtype=np.int64)
    deg[0] = 2
    acc = 0.0
    for t in range(1, N):
        p = deg[:t] / float(2 * t)
        q = np.full(t, 1.0 / t)
        acc += 0.5 * float(np.sum(np.abs(p - q)))
        deg[CHOICES[t - 1] - 1] += 1
        deg[t] = 1
    return acc


def _urn() -> int:
    rng = np.random.default_rng(1)
    urn = np.empty(2 * URN_STEPS + 2, dtype=np.int64)
    urn[:2] = 1
    size = 2
    for t in range(2, URN_STEPS + 2):
        target = urn[rng.integers(0, size, size=1)]
        urn[size] = target[0]
        urn[size + 1] = t
        size += 2
    return size


def run_probe() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    _windowed_tv()
    _dense_steps()
    _urn()
    return time.perf_counter() - t0

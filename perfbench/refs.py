"""Slow output references the benchmark checks the library against.

Both are written from the definitions with dense numpy arrays. Neither
imports `dyngof.sampling` nor calls the library's conditional
distributions, so a fast path that breaks the statistic or the model
distance disagrees with them.
"""

from __future__ import annotations

import numpy as np

PA, UNIFORM, AFFINE = "pa", "uniform", "affine-pa"


def degrees_at(choices: np.ndarray, m: int, t: int) -> np.ndarray:
    """Degrees of vertices 1..t after arrival t, from the choice array."""
    deg = np.full(t, m, dtype=np.int64)
    deg[0] = 2 * m
    deg += np.bincount(choices[: t - 1].ravel() - 1, minlength=t)
    return deg


def null_mass(kind: str, m: int, a: float, deg: np.ndarray) -> np.ndarray:
    """P(one choice of the next arrival hits v), v = 1..t, by definition."""
    t = deg.size
    if kind == PA:
        return deg / (2 * m * t)
    if kind == UNIFORM:
        return np.full(t, 1.0 / t)
    if kind == AFFINE:
        return (deg + a) / ((2 * m + a) * t)
    raise ValueError(f"unknown model kind {kind!r}")


def probe_tv(choices: np.ndarray, kind: str, m: int, a: float, r: int, width: int) -> float:
    """TV between the window-[r, r+width) empirical measure and the null at r."""
    window = choices[r - 2 : r - 2 + width].ravel()
    kept = window[window <= r - 1]
    if kept.size == 0:
        return 1.0
    emp = np.bincount(kept - 1, minlength=r - 1) / kept.size
    null = null_mass(kind, m, a, degrees_at(choices, m, r - 1))
    return 0.5 * float(np.sum(np.abs(emp - null)))


def statistic(choices: np.ndarray, kind: str, m: int, a: float, points, width: int) -> np.ndarray:
    """Per-probe TV values of the statistic; their sum is S."""
    choices = np.asarray(choices, dtype=np.int64)
    return np.array([probe_tv(choices, kind, m, a, int(r), width) for r in points])


def pa_uniform_dn_one(choices: np.ndarray, m: int) -> float:
    """Closed-form dn(pa, uniform) summand on one trajectory.

    At state time j the one-step TV is (1/2) * sum_v |deg_v/(2mj) - 1/j|
    = H(j) / (4mj) with H = sum_v |deg_v - 2m|. H changes only at the at
    most 2m vertices an arrival touches, so it is kept in O(m) per step.
    """
    rows = np.asarray(choices, dtype=np.int64).tolist()
    n = len(rows) + 1
    deg = [0] * (n + 1)  # 1-indexed
    deg[1] = 2 * m
    h = 0
    acc = 0.0
    for j in range(1, n):
        acc += h / (4 * m * j)
        # arrival j+1 enters with its own m edge ends, then hits its targets
        deg[j + 1] = m
        h += m
        for v in rows[j - 1]:
            before = abs(deg[v] - 2 * m)
            deg[v] += 1
            h += abs(deg[v] - 2 * m) - before
    return 0.5 * acc

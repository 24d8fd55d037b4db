"""Non-stationary sampling estimators and total variation distances.

The estimator treats the attachment choices made during a window of
arrivals [t, t+width) as approximately iid draws from the time-t
conditional distribution, discarding choices that land outside the
vertices {1, ..., t-1} alive before the window. The resulting sparse
empirical measure is compared against a model's conditional distribution
in total variation. empirical_measure and tv_distance are the
single-probe definitions; probe_tvs computes every probe of a plan in a
few batched numpy passes from an identity that needs no per-window sort,
equal to them up to rounding, and is what the statistic calls.

Also provides the pair-counting representation of TV between two discrete
measures: group domain elements by their (p, q) probability pair and sum
N(p, q) * |p - q| / 2. It agrees with the dense formula and is the
executable form of the integral representation used in the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import ModelSpec, ProbVector, Trajectory

# Window elements gathered per batch of probes in probe_tvs. It bounds a
# batch's working memory at a few times this many words whatever n is; a
# batch holds at least one probe, so a wider window makes a batch of one.
BATCH_ELEMENTS = 4096


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Windowed empirical attachment measure at probe time t.

    counts maps vertex -> number of in-window edge choices that targeted
    it (vertices in {1, ..., t-1} only); denom is the total number of
    in-window choices that stayed inside {1, ..., t-1}. With denom > 0 the
    measure is v -> counts[v] / denom, exact in rational arithmetic.
    """

    t: int
    width: int
    counts: dict[int, int]
    denom: int


@dataclass(frozen=True)
class ProbePlan:
    """Sorted probe times r_1 <= ... <= r_M sharing one window width."""

    points: np.ndarray
    width: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.int64)
        object.__setattr__(self, "points", points)
        if points.ndim != 1 or points.size < 1:
            raise ValueError("plan needs at least one probe point")
        if self.width < 1:
            raise ValueError("width must be positive")
        if np.any(np.diff(points) < 0):
            raise ValueError("probe points must be sorted")
        if points[0] < 2:
            raise ValueError("probe points start at 2")

    @property
    def count(self) -> int:
        return int(self.points.size)

    def feasible_for(self, n: int) -> bool:
        return bool(self.points[-1] + self.width <= n + 1)


def sample_probe_points(n: int, count: int, width: int, rng: np.random.Generator) -> ProbePlan:
    """Draw probe times uniformly with replacement from {2, ..., n+1-width}.

    The range is clipped so every window [r, r+width) fits inside the
    trajectory.
    """
    if n < width + 2:
        raise ValueError("infeasible config: window exceeds horizon")
    if count < 1:
        raise ValueError("need at least one probe point")
    points = np.sort(rng.integers(2, n + 2 - width, size=count))
    return ProbePlan(points=points, width=width)


def empirical_measure(traj: Trajectory, t: int, width: int) -> EmpiricalMeasure:
    """Empirical measure over the window of arrivals h in [t, t+width)."""
    if width < 1:
        raise ValueError("width must be positive")
    if t < 2 or t + width > traj.n + 1:
        raise ValueError("window out of range")
    flat = traj.choices[t - 2 : t - 2 + width].ravel()
    kept = flat[flat <= t - 1]
    vertices, hits = np.unique(kept, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(vertices, hits)}
    return EmpiricalMeasure(t=t, width=width, counts=counts, denom=int(kept.size))


def tv_distance(emp: EmpiricalMeasure, model_probs: ProbVector) -> float:
    """TV distance between a windowed empirical measure and a model distribution.

    Computed sparsely over the support of the empirical counts; an empty
    window (denom = 0) is reported as the maximal distance 1.
    """
    if emp.t != model_probs.t:
        raise ValueError(f"time mismatch: measure at {emp.t}, distribution at {model_probs.t}")
    if emp.denom == 0:
        return 1.0
    mass = model_probs.mass
    denom = emp.denom
    acc = 1.0
    for v, c in emp.counts.items():
        p = mass[v - 1]
        acc += abs(c / denom - p) - p
    return min(max(0.5 * acc, 0.0), 1.0)


def probe_tvs(traj: Trajectory, model: ModelSpec, plan: ProbePlan) -> tuple[np.ndarray, np.ndarray]:
    """TV distance and kept count D_r of every probe of the plan.

    Entry k is tv_distance(empirical_measure(traj, r, width),
    step_distribution(model, replay(traj, r - 1))) for r = plan.points[k],
    up to rounding, and that measure's denom. Both measures sum to one on
    {1, ..., r-1}, so with c_v the window count of v and w_v =
    attachment_probability(deg_v, 1) = (r-1) * p_v, the TV is
    sum_v max(c_v - lam * w_v, 0) / D_r, lam = D_r / (r-1), over the
    vertices the window hits. The plan must be feasible for traj.
    """
    n, m, width = traj.n, traj.m, plan.width
    total, size = (n - 1) * m, width * m  # choices in all and per window
    flat = traj.choices.ravel()
    # Element e = row*m + j, ordered by target and then by time: key v*total + e.
    key = np.sort(flat * total + np.arange(total))
    target, order = np.divmod(key, total)
    row = order // m
    rank = np.arange(total) - np.searchsorted(target, target)  # earlier hits on the target
    # prev is the row of the previous hit on the target, or its birth row
    # v - 2 (vertex 1's is -1). In the window at row s = r - 2 an element is
    # its target's first kept hit exactly when prev < s, which covers
    # v <= r - 1 too; it is the only one unless the next hit, at row after,
    # comes before s + width, that is unless crowded < s as well.
    prev = np.where(rank == 0, target - 2, np.concatenate(([0], row[:-1])))
    after = np.where(np.append(rank[1:] == 0, True), n, np.concatenate((row[1:], [n])))
    # A first kept hit sees deg_{r-1}(v): the base degree plus the hits before it.
    weight = model.attachment_probability(rank + np.where(target == 1, 2 * m, m), 1)
    pos = np.empty_like(order)  # each element's sorted position
    pos[order] = np.arange(total)
    # Back in time order; row s of a view is the window starting at row s.
    prev_w, crowded_w, weight_w = (
        sliding_window_view(a[pos], size)[::m] for a in (prev, np.maximum(prev, after - width), weight)
    )
    starts, inverse = np.unique(plan.points - 2, return_inverse=True)
    step = max(1, BATCH_ELEMENTS // size)
    tv, kept = np.empty(starts.size), np.empty(starts.size)
    for lo in range(0, starts.size, step):
        s = starts[lo : lo + step]
        count = (prev_w[s] < s[:, None]).astype(np.float64)
        # A crowded first hit counts its target's hits up to the window's end.
        i, k = np.divmod(np.flatnonzero(crowded_w[s] < s[:, None]), size)
        e = s[i] * m + k
        count[i, k] = np.searchsorted(key, flat[e] * total + (s[i] + width) * m) - pos[e]
        denom = count.sum(axis=1)  # D_r, exact in float64
        terms = np.maximum(count - (denom / (s + 1))[:, None] * weight_w[s], 0.0)
        tv[lo : lo + s.size] = terms.sum(axis=1) / denom
        kept[lo : lo + s.size] = denom
    return tv[inverse], kept[inverse].astype(np.int64)


def tv_dense(p: ProbVector, q: ProbVector) -> float:
    """TV distance between two distributions on the same vertex set."""
    if p.t != q.t:
        raise ValueError(f"length mismatch: {p.t - 1} vs {q.t - 1}")
    return min(max(0.5 * float(np.sum(np.abs(p.mass - q.mass))), 0.0), 1.0)


def _quantize(x: float):
    return round(float(x), 15)


def counting_function(p, q: ProbVector) -> dict[tuple, int]:
    """Count domain elements by their (p-probability, q-probability) pair.

    p may be a ProbVector or an EmpiricalMeasure on the same domain as q.
    The result maps each pair to its number of elements; empirical
    probabilities are keyed exactly as rationals, all others as floats
    quantized at 1e-15.
    """
    if p.t != q.t:
        raise ValueError(f"domain mismatch: {p.t} vs {q.t}")
    entries: dict[tuple, int] = {}
    if isinstance(p, EmpiricalMeasure):
        if p.denom == 0:
            raise ValueError("empty empirical measure")
        for v in range(1, q.t):
            key = (Fraction(p.counts.get(v, 0), p.denom), _quantize(q.mass[v - 1]))
            entries[key] = entries.get(key, 0) + 1
    else:
        for pv, qv in zip(p.mass, q.mass):
            key = (_quantize(pv), _quantize(qv))
            entries[key] = entries.get(key, 0) + 1
    return entries


def tv_via_counting(counts: dict[tuple, int]) -> float:
    """TV distance recovered from the pair-counting representation."""
    return 0.5 * sum(n * abs(float(p) - float(q)) for (p, q), n in counts.items())

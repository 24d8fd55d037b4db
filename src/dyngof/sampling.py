"""Non-stationary sampling estimators and total variation distances.

The estimator treats the attachment choices made during a window of
arrivals [t, t+width) as approximately iid draws from the time-t
conditional distribution, discarding choices that land outside the
vertices {1, ..., t-1} alive before the window. The resulting sparse
empirical measure is compared against a model's conditional distribution
in total variation. empirical_measure and tv_distance are the
single-probe definitions; probe_tvs computes every probe of a plan from
the complement of an identity that needs no per-window sort: two
difference arrays give every window's kept count and hit weight in
O(n*m), and only the (probe, vertex) pairs that can add a positive part
are expanded. It equals them up to rounding and is what the statistic
calls.

Also provides the pair-counting representation of TV between two discrete
measures: group domain elements by their (p, q) probability pair and sum
N(p, q) * |p - q| / 2. It agrees with the dense formula and is the
executable form of the integral representation used in the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .models import ModelSpec, ProbVector, Trajectory, _integer

# Candidate (probe, vertex) pairs evaluated per batch in probe_tvs. It
# bounds a batch's working memory at a few times this many words whatever
# n, the window width or the number of probes is; the rest of the kernel
# holds O(n*m) words.
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
    """Sorted integer probe times r_1 <= ... <= r_M sharing one integer window width."""

    points: np.ndarray
    width: int

    def __post_init__(self):
        # models._integer's rule, by dtype: float, string or bool points raise rather than truncate.
        points = np.asarray(self.points)
        if points.size and points.dtype.kind not in "iu":
            raise ValueError(f"points: expected integers, got {points.dtype} values")
        points = np.asarray(points, dtype=np.int64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "width", _integer("width", self.width))
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
    {1, ..., r-1}, so with c_v the window count of v, w_v =
    attachment_probability(deg_v, 1) = (r-1) * p_v and lam = D_r / (r-1),
    the TV is sum_v max(c_v - lam * w_v, 0) / D_r over the vertices the
    window hits, which is 1 - W_r / (r-1) + K_r / D_r with W_r = sum_v w_v
    and K_r = sum_v max(lam * w_v - c_v, 0). D_r and W_r come from two
    difference arrays; K_r only from the (probe, vertex) pairs with
    lam * w_v > 1, in batches of BATCH_ELEMENTS pairs. The plan must be
    feasible for traj.
    """
    n, m, width = traj.n, traj.m, plan.width
    total = (n - 1) * m  # choices in all
    # Element e = row*m + j, ordered by target and then by time: key v*total + e.
    key = np.sort(traj.choices.ravel() * total + np.arange(total))
    target, row = np.divmod(key, total)
    row //= m
    rank = np.arange(total) - np.searchsorted(target, target)  # earlier hits on the target
    # prev is the row of the previous hit on the target, or its birth row
    # v - 2 (vertex 1's is -1). The window at row s = r - 2 keeps an element
    # when v - 1 <= s, and the element is its target's first kept hit exactly
    # when prev < s; it is the only one unless the next hit, at row after,
    # comes before s + width, that is unless crowded < s as well.
    prev = np.where(rank == 0, target - 2, np.concatenate(([0], row[:-1])))
    after = np.where(np.append(rank[1:] == 0, True), n, np.concatenate((row[1:], [n])))
    # A first kept hit sees deg_{r-1}(v): the base degree plus the hits before it.
    weight = model.attachment_probability(rank + np.where(target == 1, 2 * m, m), 1)
    starts, inverse = np.unique(plan.points - 2, return_inverse=True)

    # Difference arrays over all starts s: an element counts in D_s for s in
    # [max(row - width + 1, v - 1), row], and as a first hit adds its weight
    # to W_s for s in [lo, row], lo = max(prev, row - width) + 1.
    kept_from = np.maximum(row - width + 1, target - 1)
    kept = np.cumsum(np.bincount(kept_from, minlength=n) - np.bincount(row + 1, minlength=n))[starts]
    first = np.flatnonzero(prev < row)  # all but repeats of a target within one row
    lo, w = np.maximum(prev, row - width)[first] + 1, weight[first]
    hit_mass = np.bincount(lo, w, minlength=n) - np.bincount(row[first] + 1, w, minlength=n)
    hit_mass = np.cumsum(hit_mass)[starts]

    # A term of K_r is nonzero only where lam * w_v > c_v >= 1, so only if
    # w_v > (s + 1) / D_s. Its suffix minimum h is nondecreasing, which makes
    # a first hit's candidate probes one range: [k0, k0 + span).
    lam = kept / (starts + 1)
    h = np.minimum.accumulate(((starts + 1) / kept)[::-1])[::-1]
    below = np.cumsum(np.bincount(starts + 1, minlength=n))  # below[x]: starts less than x
    k0 = below[lo]
    span = np.minimum(below[row[first] + 1], np.searchsorted(h, w)) - k0
    pick = span > 0
    span, index, w = span[pick], first[pick], w[pick]  # index: a candidate's sorted position
    ends = np.cumsum(span)  # candidate i owns pairs ends[i] - span[i], ..., ends[i] - 1
    offset = ends - span - k0[pick]  # pair p of candidate i is probe p - offset[i]
    crowded = np.maximum(prev, after - width)[index]
    bound = target[index] * total + width * m
    excess = np.zeros(starts.size)  # K_r
    pairs = int(span.sum())
    for p0 in range(0, pairs, BATCH_ELEMENTS):
        p1 = min(p0 + BATCH_ELEMENTS, pairs)
        # Candidates a..b own pairs p0..p1-1; i and j are each pair's candidate and probe.
        a, b = np.searchsorted(ends, (p0, p1 - 1), "right")
        e = ends[a : b + 1]
        i = np.repeat(np.arange(a, b + 1), np.minimum(e, p1) - np.maximum(e - span[a : b + 1], p0))
        j = np.arange(p0, p1) - offset[i]
        s = starts[j]
        count = np.ones(p1 - p0)
        # A crowded first hit counts its target's hits up to the window's end.
        crowd = np.flatnonzero(crowded[i] < s)
        count[crowd] = np.searchsorted(key, bound[i[crowd]] + s[crowd] * m) - index[i[crowd]]
        # Unbuffered and in pair order, so each probe adds its terms in
        # candidate order whatever the batch size.
        np.add.at(excess, j, np.maximum(lam[j] * w[i] - count, 0.0))
    tv = np.clip(1.0 - hit_mass / (starts + 1) + excess / kept, 0.0, 1.0)
    return tv[inverse], kept[inverse]


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

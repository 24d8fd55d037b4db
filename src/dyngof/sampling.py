"""Non-stationary sampling estimators and total variation distances.

The estimator treats the attachment choices made during a window of
arrivals [t, t+width) as approximately iid draws from the time-t
conditional distribution, discarding choices that land outside the
vertices {1, ..., t-1} alive before the window. The resulting sparse
empirical measure is compared against a model's conditional distribution
in total variation. empirical_measure and tv_distance are the
single-probe definitions; probe_tvs_block computes every probe of a
block of plans from the complement of an identity that needs no
per-window sort: two difference arrays give every window's kept count
and hit weight in O(n*m), and only the (probe, vertex) pairs that can add
a positive part are expanded. It equals them up to rounding and is what
the statistic calls, and a replication gets the same bits in any block.

Also provides the pair-counting representation of TV between two discrete
measures: group domain elements by their (p, q) probability pair and sum
N(p, q) * |p - q| / 2. It agrees with the dense formula and is the
executable form of the integral representation used in the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .models import ModelSpec, ProbVector, Trajectory, _integer_array, sorted_hits, stack_shape
from .rng import _integer

# Candidate (probe, vertex) pairs evaluated per batch in probe_tvs_block. It
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
        points, width = _plan_rule(self.width, self.points, 1)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "width", width)

    @property
    def count(self) -> int:
        return int(self.points.size)


def _plan_rule(width, points=None, ndim: int = 1) -> tuple[np.ndarray | None, int]:
    """points, if given, as int64 plans along the last of ndim axes and width as an int, or ValueError."""
    width = _integer("width", width)
    if width < 1:
        raise ValueError("infeasible plan: width must be positive")
    if points is not None:
        points = _integer_array("points", points)
        if points.ndim != ndim:
            raise ValueError(f"points: expected {ndim}-D, got shape {points.shape}")
        if points.size < 1:
            raise ValueError("plan needs at least one probe point")
        points = np.asarray(points, dtype=np.int64)
        if np.any(points[..., 1:] < points[..., :-1]):  # np.diff would wrap around at int64's ends
            raise ValueError("infeasible plan: probe points must be sorted")
        if points[..., 0].min() < 2:
            raise ValueError("infeasible plan: probe points start at 2")
    return points, width


def probe_points(n: int, count: int, width: int, rngs: list) -> np.ndarray:
    """Row k of the (len(rngs), count) result: rngs[k]'s uniform draws from {2, ..., n+1-width}, sorted.

    Draws are with replacement; the range keeps every window [r, r+width) inside the trajectory. The integer n,
    the horizon (first: a config's width at n <= 0 is 0), width and count are checked before any draw.
    """
    n = _integer("n", n)
    if n < _integer("width", width) + 2:
        raise ValueError("infeasible config: window exceeds horizon")
    _, width = _plan_rule(width)
    if _integer("count", count) < 1:
        raise ValueError("need at least one probe point")
    draws = [rng.integers(2, n + 2 - width, size=count) for rng in rngs]
    return np.sort(np.array(draws, dtype=np.int64).reshape(len(rngs), count), axis=1)


def sample_probe_points(n: int, count: int, width: int, rng: np.random.Generator) -> ProbePlan:
    """The plan of probe_points' one row drawn by rng."""
    return ProbePlan(probe_points(n, count, width, [rng])[0], width)


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


def probe_tvs_block(
    choices: np.ndarray, nulls: list, points: np.ndarray, width: int
) -> tuple[list, np.ndarray]:
    """TV distance and kept count D_r of every probe of each trajectory's plan (points[k], width), against each null.

    Probe r of trajectory traj against a null gets
    tv_distance(empirical_measure(traj, r, width),
    step_distribution(null, replay(traj, r - 1))), up to rounding, and that
    measure's denom. Both measures sum to one on {1, ..., r-1}, so with c_v
    the window count of v, w_v = attachment_probability(deg_v, 1) =
    (r-1) * p_v and lam = D_r / (r-1), the TV is
    sum_v max(c_v - lam * w_v, 0) / D_r over the vertices the window hits,
    which is 1 - W_r / (r-1) + K_r / D_r with W_r = sum_v w_v and
    K_r = sum_v max(lam * w_v - c_v, 0). D_r and W_r come from two
    difference arrays; K_r only from the (probe, vertex) pairs with
    lam * w_v > 1, in batches of BATCH_ELEMENTS pairs.

    choices is the (K, n-1, m) stack of the K trajectories' choices, as
    models.sample_choices draws it, and gives the block's n and m;
    models.stack_shape checks its shape, and its targets are read as valid
    and not checked. nulls is a nonempty list of
    models with the block's m. Row k of the (K, M) points and width must be
    a ProbePlan's whose windows fit n, or ValueError is raised.
    models.sorted_hits orders the block's hits by replication, target and
    time, with replication k's vertex v at k*n + v and its row at k*n + row,
    so each difference array covers the K*n starts of all replications. The
    float cumsum of the hit weights, the suffix minimum h and its
    searchsorted cut run per replication, so every probe gets the bits
    it gets in a block of one. The hits, kept counts, first-hit ranges and h
    do not depend on the null and are built once; each null adds its
    weights, hit mass, cut and pairs. Returns a list of len(nulls) TV arrays,
    entry j against nulls[j], and the kept counts once, each of the K*M
    probes in block order.
    """
    reps, n, m = stack_shape(choices)
    if not isinstance(nulls, (list, tuple)) or not all(isinstance(null, ModelSpec) for null in nulls):
        raise ValueError(f"nulls must be a list of models, got {nulls!r}")
    if not nulls:
        raise ValueError("need at least one null model")
    if any(null.m != m for null in nulls):
        raise ValueError("null model and trajectory disagree on edges per arrival")
    points, width = _plan_rule(width, points, 2)
    if len(points) != reps:
        raise ValueError(f"block has {reps} trajectories but {len(points)} plans")
    if points[:, -1].max() > n + 1 - width:  # not r + width, which wraps for r near 2**63
        raise ValueError("infeasible plan: windows must fit the trajectory")
    total = (n - 1) * m  # choices per replication
    bounds = np.arange(reps + 1)
    origin = bounds[:-1] * n  # each replication's vertex and row 0
    key, shift, target, row, rank, degree = sorted_hits(choices)
    # prev is the row of the previous hit on the target, or its birth row
    # v - 2 (vertex 1's is -1). The window at row s = r - 2 keeps an element
    # when v - 1 <= s, and the element is its target's first kept hit exactly
    # when prev < s; it is the only one unless the next hit, at row after
    # (the end of the replication for the last hit), comes before s + width,
    # that is unless crowded = after - width < s.
    run_start = rank == 0
    prev = np.where(run_start, target - 2, np.concatenate(([0], row[:-1])))
    last = np.append(run_start[1:], True).reshape(reps, total)
    after = np.where(last, (origin + n)[:, None], np.append(row[1:], 0).reshape(reps, total)).ravel()
    # Each row is sorted, so the block's starts k*n + r - 2 are too; each
    # distinct start is evaluated once.
    starts = (points + (origin - 2)[:, None]).ravel()
    alive = points.ravel() - 1  # s + 1 = r - 1 vertices
    distinct = np.concatenate(([True], starts[1:] != starts[:-1]))
    inverse = distinct.cumsum() - 1
    starts, alive = starts[distinct], alive[distinct]

    # Difference arrays over all starts s: an element counts in D_s for s in
    # [max(row - width + 1, v - 1), row], and as a first hit adds its weight
    # to W_s for s in [lo, row], lo = max(prev, row - width) + 1. Each
    # replication's kept counts return to 0 by its end; its hit weights are
    # summed apart from the others' to keep their bits.
    size = reps * n
    kept = np.bincount(np.maximum(row - width + 1, target - 1), minlength=size)
    kept = np.cumsum(kept - np.bincount(row + 1, minlength=size))[starts]
    first = np.flatnonzero(prev < row)  # all but repeats of a target within one row
    lo, end = np.maximum(prev, row - width)[first] + 1, row[first] + 1  # W_s ranges [lo, end)
    # A first kept hit's degree before it is deg_{r-1}(v): every hit before it is in an earlier row.
    degree = degree[first]
    del target, row, rank, prev  # only first hits count from here on
    weights = [null.attachment_probability(degree, 1) for null in nulls]
    del degree
    masses = []
    for w in weights:
        hit_mass = np.bincount(lo, w, minlength=size) - np.bincount(end, w, minlength=size)
        masses.append(np.cumsum(hit_mass.reshape(reps, n), axis=1).ravel()[starts])
    del hit_mass  # a masses entry keeps the starts' sums alone

    # A term of K_r is nonzero only where lam * w_v > c_v >= 1, so only if
    # w_v > (s + 1) / D_s. Its suffix minimum h over a replication's starts
    # is nondecreasing, which makes a first hit's candidate probes one
    # range: [k0, k0 + span), cut at the first probe with h >= w_v.
    lam = kept / alive
    ratio = alive / kept
    below = np.cumsum(np.bincount(starts + 1, minlength=size))  # below[x]: starts less than x
    k0, span = below[lo], below[end]
    del lo, end, below
    start_at = np.searchsorted(starts, bounds * n).tolist()
    first_at = np.searchsorted(first, bounds * total).tolist()
    h = [np.minimum.accumulate(ratio[a:b][::-1])[::-1] for a, b in zip(start_at, start_at[1:])]
    del ratio
    candidates = []
    while weights:
        w = weights.pop(0)  # a null's weights of every first hit go once its candidates are picked
        cut = span.copy() if weights else span  # the last null cuts span itself
        for k in range(reps):
            at = slice(first_at[k], first_at[k + 1])
            below_h = np.searchsorted(h[k], w[at])
            below_h += start_at[k]
            np.minimum(span[at], below_h, out=cut[at])
        cut -= k0
        pick = np.flatnonzero(cut > 0)
        cut, index, w = cut[pick], first[pick], w[pick]  # index: a candidate's sorted position
        candidates.append((cut, index, w, k0[pick], after[index] - width))
    del after, first, k0, span, h, pick  # the pairs need only the candidates'
    tvs = []
    for hit_mass, (span, index, w, k0, crowded) in zip(masses, candidates):
        ends = np.cumsum(span)  # candidate i owns pairs ends[i] - span[i], ..., ends[i] - 1
        offset = ends - span - k0  # pair p of candidate i is probe p - offset[i]
        bound = (key[index] >> shift << shift) + width * m  # plus s*m: the key just past window s
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
            term = lam[j] * w[i]
            count = np.ones(p1 - p0)
            # A crowded first hit counts its target's hits up to the window's end,
            # two or more. Where term <= 2 every such count gives the term +0.0,
            # so 2 stands in; the rest are counted.
            crowd = crowded[i] < s
            count[crowd] = 2.0
            crowd = np.flatnonzero(crowd & (term > 2.0))
            ic = i[crowd]
            count[crowd] = np.searchsorted(key, bound[ic] + s[crowd] * m) - index[ic]
            # Unbuffered and in pair order, so each probe adds its terms in
            # candidate order whatever the batch size.
            term -= count
            np.add.at(excess, j, np.maximum(term, 0.0, out=term))
            del i, j, s, count, crowd, ic, term  # before the next batch allocates its own
        tvs.append(np.clip(1.0 - hit_mass / alive + excess / kept, 0.0, 1.0)[inverse])
    return tvs, kept[inverse]


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

"""The goodness-of-fit statistic and decision rule for growing graphs.

Given one observed trajectory and a null model, the statistic sums, over
randomly probed times r, the TV distance between the windowed empirical
attachment measure at r and the null model's conditional distribution at
r. A trajectory is flagged as not coming from the null when the statistic
exceeds a threshold: the null model's own expected statistic (its
intrinsic estimation error under non-stationary sampling, estimated by
simulating the null) plus half the separation constant D.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sampling
from .models import ModelSpec, Trajectory, _real, check_targets, hit_keys, sample_choices, stack_shape
from .rng import TAG_DISTANCE, TAG_PROBES, TAG_RADIUS, TAG_TRAJECTORY, _integer, derive_seed, stream
from .sampling import ProbePlan, probe_points, probe_tvs_block, sample_probe_points


@dataclass(frozen=True)
class SampledAlpha:
    """Estimate the null's expected statistic by simulation when testing."""

    replications: int = 32

    def __post_init__(self):
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        if self.replications < 2:
            raise ValueError("alpha estimation needs at least 2 replications")


@dataclass(frozen=True)
class FixedAlpha:
    """Use a precomputed expected-statistic value for the threshold."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _real("radius", self.radius))
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"fixed radius must be finite and nonnegative, got {self.radius}")


@dataclass(frozen=True)
class TestConfig:
    """Inputs of the decision procedure.

    The window width and probe count scale linearly with the trajectory
    length: width = ceil(width_fraction * n), probes = ceil(probe_fraction * n).
    """

    null_model: ModelSpec
    D: float = 1.0
    width_fraction: float = 0.1
    probe_fraction: float = 0.5
    alpha_mode: SampledAlpha | FixedAlpha = SampledAlpha()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        for name in ("D", "width_fraction", "probe_fraction"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0 < self.D < math.inf:
            raise ValueError(f"D must be positive and finite, got {self.D}")
        if not 0 < self.width_fraction < 1:
            raise ValueError("width_fraction must be in (0, 1)")
        if not 0 < self.probe_fraction < 1:
            raise ValueError("probe_fraction must be in (0, 1)")

    def width_for(self, n: int) -> int:
        return math.ceil(self.width_fraction * n)

    def probes_for(self, n: int) -> int:
        return math.ceil(self.probe_fraction * n)


class StatisticResult(NamedTuple):
    S: float
    per_probe_tv: list[float]
    kept: int  # sum over probes of the in-window choices kept, D_r


@dataclass(frozen=True)
class RadiusEstimate:
    """Sample mean and spread of the statistic a model scores on itself."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: np.ndarray) -> RadiusEstimate:
        """The mean and the ddof=1 standard deviation of the statistic values."""
        return cls(mean=float(np.mean(values)), std=float(np.std(values, ddof=1)))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one run of the decision procedure."""

    S: float
    alpha: float
    decision: int
    probes: ProbePlan
    per_probe_tv: list[float]
    radius_estimate: float
    radius_std: float
    seed: int
    kept_fraction: float  # share of the M*C*m in-window choices the statistic kept

    def to_json(self) -> str:
        return json.dumps(
            {
                "S": self.S,
                "alpha": self.alpha,
                "decision": self.decision,
                "M": self.probes.count,
                "C": self.probes.width,
                "radius_mean": self.radius_estimate,
                "radius_std": self.radius_std,
                "seed": self.seed,
                "kept_fraction": self.kept_fraction,
            }
        )


def probe_sum(tvs: np.ndarray) -> np.ndarray:
    """S along the last axis: the per-probe TVs added left to right.

    cumsum adds in sequence, where np.sum adds pairwise and Python 3.12's
    sum() compensates floats, so every caller gets the same bits.
    """
    return np.cumsum(tvs, axis=-1)[..., -1]


def test_statistic(traj: Trajectory, null_model: ModelSpec, plan: ProbePlan) -> StatisticResult:
    """Sum of per-probe TV distances against the null model.

    sampling.probe_tvs_block gives every probe's TV and kept count D_r in
    batched numpy passes, equal up to rounding to tv_distance(empirical_measure(...),
    step_distribution(...)) on the replayed state; it costs one sort of the
    (n-1)*m choices, O(n*m) for every window's kept count and hit weight,
    plus O(log(n*m)) per candidate (probe, vertex) pair with lam*w_v > 1,
    with no sort of or pass over a window. No window is empty: arrival r's
    own m choices lie in {1, ..., r-1}. S adds the values in probe order;
    kept is the sum of D_r.
    """
    (tvs,), kept = probe_tvs_block(traj.choices[None], [null_model], plan.points[None], plan.width)
    return StatisticResult(S=float(probe_sum(tvs)), per_probe_tv=list(tvs), kept=int(kept.sum()))


def replication_blocks(model: ModelSpec, n: int, seeds: list[int]):
    """Yield (block, choices): a range of seed indices and the stack one sample_choices call draws from them.

    The R seeds split into the number of blocks nearest R*(n-1)*m / sampling.BATCH_ELEMENTS, at least one and at
    most R, as contiguous ranges whose sizes differ by at most one; one range check covers a block.
    """
    reps, n = len(seeds), _integer("n", n)
    count = min(reps, max(1, round(reps * (n - 1) * model.m / sampling.BATCH_ELEMENTS)))
    for b in range(count):
        block = range(b * reps // count, (b + 1) * reps // count)
        choices = sample_choices(model, n, seeds[block.start : block.stop])
        check_targets(choices)
        yield block, choices
        del choices  # as each consumer does, so no block is held while the next is drawn


def block_statistics(choices: np.ndarray, cfg: TestConfig, plan_rngs: list, nulls: list) -> np.ndarray:
    """Row j, column k: S against nulls[j] of the stack's trajectory k, on the plan plan_rngs[k] draws.

    cfg gives the probe count and width at the stack's n. The K plans are one (K, M) probe_points array, which
    one probe_tvs_block pass scores against every null; each value has test_statistic's bits.
    """
    reps, n = choices.shape[0], choices.shape[1] + 1
    probes, width = cfg.probes_for(n), cfg.width_for(n)
    points = probe_points(n, probes, width, plan_rngs)
    return np.array([probe_sum(tvs.reshape(reps, probes)) for tvs in probe_tvs_block(choices, nulls, points, width)[0]])


def statistics(gen_model: ModelSpec, n: int, cfg: TestConfig, traj_seeds: list, plan_rngs: list) -> np.ndarray:
    """S against cfg.null_model of gen_model's trajectory from traj_seeds[i], on a plan from plan_rngs[i].

    block_statistics scores each block of replication_blocks.
    """
    n = _integer("n", n)
    # The horizon check names the window before sample_choices rejects n.
    probe_points(n, cfg.probes_for(n), cfg.width_for(n), [])
    values = np.empty(len(traj_seeds))
    for block, choices in replication_blocks(gen_model, n, traj_seeds):
        at = slice(block.start, block.stop)
        values[at] = block_statistics(choices, cfg, plan_rngs[at], [cfg.null_model])[0]
        del choices
    return values


def replication_seeds(seed: int, replications: int) -> tuple[list[int], list]:
    """The trajectory seeds and probe-plan streams of statistic_samples: replication i's derive from (seed, i) alone."""
    reps = range(replications)
    return [derive_seed(seed, TAG_TRAJECTORY, i) for i in reps], [stream(seed, TAG_PROBES, i) for i in reps]


def statistic_samples(gen_model: ModelSpec, n: int, cfg: TestConfig, replications: int, seed: int) -> np.ndarray:
    """Statistic values against cfg.null_model on trajectories from gen_model.

    Each replication uses an independently derived trajectory seed and
    probe plan, so results are reproducible from (seed, index) alone.
    """
    if _integer("replications", replications) < 1:
        raise ValueError("need at least one replication")
    return statistics(gen_model, n, cfg, *replication_seeds(seed, replications))


def sampling_radius_estimate(n: int, cfg: TestConfig, replications: int, seed: int) -> RadiusEstimate:
    """Monte Carlo estimate of cfg.null_model's expected statistic on itself.

    Concentration of the statistic makes this estimable from few
    trajectories; the standard deviation is reported so callers can judge
    the estimate against D/2.
    """
    if _integer("replications", replications) < 2:
        raise ValueError("radius estimation needs at least 2 replications")
    return RadiusEstimate.of(statistic_samples(cfg.null_model, n, cfg, replications, seed))


def threshold_radius(cfg: TestConfig, n: int, seed: int) -> RadiusEstimate:
    """The radius cfg.alpha_mode gives at horizon n: fixed, or estimated from seed.

    A FixedAlpha radius is reported with std 0.
    """
    if isinstance(cfg.alpha_mode, FixedAlpha):
        return RadiusEstimate(mean=cfg.alpha_mode.radius, std=0.0)
    return sampling_radius_estimate(n, cfg, cfg.alpha_mode.replications, seed)


def dn_summands(m0: ModelSpec, m1: ModelSpec, choices: np.ndarray) -> list[float]:
    """Half the summed one-step TV between m0 and m1 along each trajectory of a (K, n-1, m) stack, in one pass.

    At state time j (j vertices, degrees d_v, total degree 2mj) model k
    puts mass (beta_k*d_v + a_k) / (N_k*j) on vertex v, N_k = 2m*beta_k + a_k.
    So the one-step TV is H_j / (2*N0*N1*j) with H_j = sum_v |A*d_v + B|,
    A = beta0*N1 - beta1*N0 and B = a0*N1 - a1*N0. As 2m*A + B =
    N0*N1 - N1*N0 = 0, H_j = |A| * I_j with the integer I_j = sum_v |d_v - 2m|.
    An arrival adds m to I and each of its hits adds 1, except a hit on a
    vertex below degree 2m: one of a vertex's first m hits, which subtracts
    1. Vertex 1 starts at 2m, and its first m hits are arrival 2's choices.
    So one sort of the hits by target and time (models.hit_keys) marks each
    target's first m hits, one integer bincount counts them per row and one
    integer cumsum gives every I_j: O(n*m*log(n*m)) time, and memory of a
    few arrays of (n-1)*m entries, with no per-hit rank, degree or gain.
    H_j is the correctly rounded |A| * I_j, exact with integer or dyadic
    shifts. The mean over trajectories drawn from m1 is the model distance
    dn(m0, m1) at horizon n.

    Each replication has its own rows in the bincount and keeps its own
    np.sum, so no value depends on the block.
    """
    reps, n, m = stack_shape(choices)
    if not m0.m == m1.m == m:
        raise ValueError("models and trajectory disagree on edges per arrival")
    n0 = 2 * m * m0.beta + m0.shift
    n1 = 2 * m * m1.beta + m1.shift
    key, shift = hit_keys(choices)
    # Sorted by target, a hit is one of its target's first m hits exactly
    # when the hit m places earlier has another target.
    target = key >> shift
    first = np.empty(key.size, dtype=bool)
    first[:m] = True
    np.not_equal(target[m:], target[:-m], out=first[m:])
    del target
    rows = key[first]
    del key, first
    rows &= (1 << shift) - 1
    rows //= m
    firsts = np.bincount(rows, minlength=reps * n).reshape(reps, n)
    del rows
    firsts[:, 0] -= m  # arrival 2's hits on vertex 1, which starts at 2m, each add 1
    # I_1 = |2m - 2m| = 0, and arrival row + 2 adds 2m - 2 * its first hits.
    # Arrival n never conditions a state, so only rows 0..n-3 count.
    steps = firsts[:, : n - 2]
    steps -= m
    steps *= -2
    np.cumsum(steps, axis=1, out=steps)
    H = np.empty((reps, n - 1))
    H[:, 0] = 0.0
    np.multiply(steps, abs(m0.beta * n1 - m1.beta * n0), out=H[:, 1:])
    del firsts, steps
    H /= 2 * n0 * n1 * np.arange(1, n)  # each step's TV
    np.clip(H, 0.0, 1.0, out=H)
    return [0.5 * float(np.sum(tv)) for tv in H]


def dn_estimate(m0: ModelSpec, m1: ModelSpec, n: int, replications: int, seed: int) -> float:
    """Monte Carlo estimate of the directed model distance at horizon n.

    Trajectories are drawn from m1 (the second argument supplies the
    conditioning states); at every step the two models' one-step
    conditional distributions given the realized state are compared in TV,
    summed over steps, halved, and averaged over replications. One
    dn_summands pass, O(n*m*log(n*m)) per replication, scores each block of
    replication_blocks; the summands are added in replication order.
    """
    if _integer("replications", replications) < 1:
        raise ValueError("need at least one replication")
    if m0.m != m1.m:
        raise ValueError("models disagree on edges per arrival")
    summands = []
    seeds = [derive_seed(seed, TAG_DISTANCE, i) for i in range(replications)]
    for _, choices in replication_blocks(m1, n, seeds):
        summands += dn_summands(m0, m1, choices)
        del choices
    return float(probe_sum(np.array(summands))) / replications


def test_dynamic_graph(traj: Trajectory, cfg: TestConfig) -> TestReport:
    """Run the decision procedure on one trajectory.

    Decides 1 (not the null model) when the statistic exceeds
    radius + D/2, where the radius is the null's expected statistic from
    cfg.alpha_mode. Deterministic given (traj, cfg).
    """
    seed, n = cfg.seed, traj.n
    plan = sample_probe_points(n, cfg.probes_for(n), cfg.width_for(n), stream(seed, TAG_PROBES, 0))
    stat = test_statistic(traj, cfg.null_model, plan)
    radius = threshold_radius(cfg, n, derive_seed(seed, TAG_RADIUS))
    alpha = radius.mean + cfg.D / 2
    return TestReport(
        S=stat.S,
        alpha=alpha,
        decision=int(stat.S > alpha),
        probes=plan,
        per_probe_tv=stat.per_probe_tv,
        radius_estimate=radius.mean,
        radius_std=radius.std,
        seed=seed,
        kept_fraction=stat.kept / (plan.count * plan.width * traj.m),
    )


# These names start with Test/test but are library API, not test cases.
TestConfig.__test__ = False
TestReport.__test__ = False
test_statistic.__test__ = False
test_dynamic_graph.__test__ = False

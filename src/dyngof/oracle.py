"""Exact enumeration over tiny instances, in rational arithmetic.

For single-edge growth (m = 1) and n <= 6 the trajectory space has at most
(n-1)! elements, so expectations can be computed exactly by enumerating
every trajectory with its probability as a Fraction. These values anchor
the Monte Carlo machinery: sampled estimates must converge to them.

The statistic and distance computations here are written directly against
the definitions (dense sums over all vertices, rational probabilities) and
deliberately share no code with the floating-point implementations they
validate.
"""

from __future__ import annotations

from fractions import Fraction

from .models import KIND_PA, KIND_UNIFORM, ModelSpec
from .rng import _integer

MAX_ORACLE_N = 6

# The functionals the oracle subcommand computes, by its --functional names.
FUNCTIONAL_TRAJ_PROBS = "traj-probs"
FUNCTIONAL_EXPECTED_S = "expected-s"
FUNCTIONAL_DN = "dn"


def _check_instance(model: ModelSpec, n: int) -> None:
    if n > MAX_ORACLE_N:
        raise ValueError(f"exact enumeration supports n <= {MAX_ORACLE_N}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if model.m != 1:
        raise ValueError("exact enumeration supports m = 1 only")


def _exact_step_probs(model: ModelSpec, degrees: list[int]) -> list[Fraction]:
    """P(arrival t+1 attaches to v) for v = 1..t, as exact rationals."""
    t = len(degrees)
    if model.kind == KIND_PA:
        total = 2 * t
        return [Fraction(d, total) for d in degrees]
    if model.kind == KIND_UNIFORM:
        return [Fraction(1, t)] * t
    a = Fraction(model.a)
    total = 2 * t + a * t
    return [Fraction(d + a, total) for d in degrees]


def enumerate_trajectories(model: ModelSpec, n: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """All length-n trajectories with exact probabilities; probs sum to 1."""
    _check_instance(model, n)
    out: list[tuple[tuple[int, ...], Fraction]] = []

    def grow(degrees: list[int], choices: tuple[int, ...], prob: Fraction) -> None:
        t = len(degrees)
        if t == n:
            out.append((choices, prob))
            return
        for v, p in enumerate(_exact_step_probs(model, degrees), start=1):
            grow(degrees[:v - 1] + [degrees[v - 1] + 1] + degrees[v:] + [1], choices + (v,), prob * p)

    grow([2], (), Fraction(1))
    return out


def _degrees_at(choices: tuple[int, ...], t: int) -> list[int]:
    degrees = [2]
    for s in range(2, t + 1):
        degrees[choices[s - 2] - 1] += 1
        degrees.append(1)
    return degrees


def _exact_probe_tv(
    choices: tuple[int, ...], null_model: ModelSpec, r: int, width: int
) -> Fraction:
    """TV between the window-[r, r+width) empirical measure and the null conditional.

    The window is never empty: arrival r's own choice lies in {1, ..., r-1}.
    """
    counts = [0] * (r - 1)
    denom = 0
    for h in range(r, r + width):
        v = choices[h - 2]
        if v <= r - 1:
            counts[v - 1] += 1
            denom += 1
    probs = _exact_step_probs(null_model, _degrees_at(choices, r - 1))
    total = sum(abs(Fraction(c, denom) - p) for c, p in zip(counts, probs))
    return total / 2


def exact_expected_statistic(
    model: ModelSpec,
    n: int,
    probes: list[int],
    width: int,
    null_model: ModelSpec | None = None,
) -> Fraction:
    """Exact expectation of the test statistic for a fixed probe plan.

    Trajectories are generated by `model`; the statistic is computed
    against `null_model` (defaults to `model`, giving the exact
    non-stationary sampling radius).
    """
    if null_model is None:
        null_model = model
    _check_instance(null_model, n)
    if not probes:
        raise ValueError("need at least one probe")
    for r in probes:
        if _integer("probes", r) < 2 or r + width > n + 1:
            raise ValueError(f"probe {r} with width {width} does not fit in n={n}")
    if width < 1:
        raise ValueError("width must be positive")
    total = Fraction(0)
    for choices, prob in enumerate_trajectories(model, n):
        stat = sum(_exact_probe_tv(choices, null_model, r, width) for r in probes)
        total += prob * stat
    return total


def exact_dn(m0: ModelSpec, m1: ModelSpec, n: int) -> Fraction:
    """Exact directed model distance: half the summed expected TV between
    one-step conditionals along trajectories of m1."""
    _check_instance(m0, n)
    _check_instance(m1, n)
    total = Fraction(0)
    for choices, prob in enumerate_trajectories(m1, n):
        acc = Fraction(0)
        for j in range(1, n):
            degrees = _degrees_at(choices, j)
            p0 = _exact_step_probs(m0, degrees)
            p1 = _exact_step_probs(m1, degrees)
            acc += sum(abs(a - b) for a, b in zip(p0, p1)) / 2
        total += prob * acc
    return total / 2

"""dn_estimate's degree-sum kernel against the per-step loop and the oracle.

reference_dn is the per-step definition: replay the state at every step,
build both one-step distributions and take their dense TV. The kernel
computes the same sum from the degree-sum identity, so the two agree up to
float rounding; identical models give exactly 0. exact_summands replays
the integer degree sums with Python ints and takes the kernel's float
steps after them, so the two agree bit for bit.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from dyngof.gof import dn_estimate, dn_summands
from dyngof.models import (
    IncrementalReplay,
    Trajectory,
    affine_pref_attach,
    pref_attach,
    sample_choices,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.oracle import enumerate_trajectories, exact_dn
from dyngof.rng import TAG_DISTANCE, derive_seed
from dyngof.sampling import probe_tvs_block, tv_dense

REL_TOL = 1e-12


def reference_dn(m0, m1, n, replications, seed):
    """The per-step loop dn_estimate ran before the degree-sum kernel."""
    total = 0.0
    for i in range(replications):
        traj = sample_trajectory(m1, n, derive_seed(seed, TAG_DISTANCE, i))
        scan = IncrementalReplay(traj)
        acc = 0.0
        for j in range(1, n):
            scan.advance(j)
            state = scan.state()
            acc += tv_dense(step_distribution(m0, state), step_distribution(m1, state))
        total += 0.5 * acc
    return total / replications


def models(m):
    return [pref_attach(m), uniform_attach(m), affine_pref_attach(0.5, m), affine_pref_attach(2.5, m)]


def exact_summands(m0, m1, choices):
    """dn_summands from I_j = sum_v |d_v - 2m| over degrees replayed with Python ints, then the kernel's float steps."""
    n, m = choices.shape[1] + 1, choices.shape[2]
    n0 = 2 * m * m0.beta + m0.shift
    n1 = 2 * m * m1.beta + m1.shift
    scale = abs(m0.beta * n1 - m1.beta * n0)
    out = []
    for rows in choices.tolist():
        degrees = [2 * m]  # the state at j = 1
        sums = [0]
        for row in rows[: n - 2]:  # arrival n never conditions a state
            for v in row:
                degrees[v - 1] += 1
            degrees.append(m)
            sums.append(sum(abs(d - 2 * m) for d in degrees))
        tv = np.array([scale * i for i in sums]) / (2 * n0 * n1 * np.arange(1, n))
        out.append(0.5 * float(np.sum(np.clip(tv, 0.0, 1.0))))
    return out


def fuzz_cases():
    rng = np.random.default_rng(20191)
    cases = []
    for m in (1, 2, 3):
        pool = models(m)
        for i, m0 in enumerate(pool):
            for j, m1 in enumerate(pool):
                if i == j:
                    continue
                for n in (2, 3, int(rng.integers(4, 401))):
                    cases.append((m0, m1, n, int(rng.integers(1, 3)), int(rng.integers(2**63))))
    return cases


@pytest.mark.parametrize("m0,m1,n,reps,seed", fuzz_cases(),
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_matches_per_step_reference(m0, m1, n, reps, seed):
    got = dn_estimate(m0, m1, n, reps, seed)
    want = reference_dn(m0, m1, n, reps, seed)
    assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_identical_models_exactly_zero(m):
    for model in models(m) + [affine_pref_attach(0.3, m)]:
        for n in (2, 3, 257):
            assert dn_estimate(model, model, n, 2, seed=n + m) == 0.0


@pytest.mark.parametrize("n", range(2, 7))
def test_summand_expectation_matches_exact_dn(n):
    pool = models(1)
    for m1 in pool:
        listing = enumerate_trajectories(m1, n)
        trajs = [Trajectory(n, 1, np.array(c, dtype=np.int64).reshape(n - 1, 1), "fixture", 0)
                 for c, _ in listing]
        for m0 in pool:
            got = sum(float(p) * dn_summands(m0, m1, traj.choices[None])[0] for traj, (_, p) in zip(trajs, listing))
            assert abs(got - float(exact_dn(m0, m1, n))) <= 1e-12


def test_summand_hand_value_pa_vs_uniform():
    # States j = 1, 2, 3 with degrees (2), (3, 1), (4, 1, 1): TV 0, 1/4, 1/3.
    traj = Trajectory(4, 1, np.array([[1], [1], [2]]), "fixture", 0)
    assert dn_summands(pref_attach(), uniform_attach(), traj.choices[None])[0] == pytest.approx(7 / 24, rel=REL_TOL)


def exact_cases():
    for m in (1, 2, 3):
        pool = [pref_attach(m), uniform_attach(m)] + [affine_pref_attach(a, m) for a in (0.1, 0.3, 0.5, 2.5)]
        for m1 in pool:
            for reps in (1, 3):
                for n in (2, 3, 299):
                    yield pytest.param(pool, m1, reps, n, id=f"{m1.label}-K{reps}-n{n}")


@pytest.mark.parametrize("pool,m1,reps,n", exact_cases())
def test_summands_equal_python_int_degree_sums(pool, m1, reps, n):
    # Bit equality, also for shifts that are not dyadic, where H_j = |A| * I_j is rounded once.
    choices = sample_choices(m1, n, [n * 7 + reps + k for k in range(reps)])
    for m0 in pool:
        assert dn_summands(m0, m1, choices) == exact_summands(m0, m1, choices), m0.label


@pytest.mark.parametrize("shape", [(5, 1), (0, 5, 1), (2, 0, 1)])
@pytest.mark.parametrize("kernel", ["dn_summands", "probe_tvs_block"])
def test_malformed_stack_is_rejected(kernel, shape):
    choices = np.ones(shape, dtype=np.int64)
    message = rf"^choices must be a nonempty stack of shape \(K, n-1, m\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        if kernel == "dn_summands":
            dn_summands(pref_attach(), uniform_attach(), choices)
        else:
            probe_tvs_block(choices, [pref_attach()], np.array([[2]]), 1)


def test_dn_summands_adds_no_per_hit_rank_degree_or_gain_array():
    # At most three arrays of the choices' size live at once (the keys and their targets, then H and the
    # divisor's two temporaries): 3.04x the choices here. Per-hit ranks, degrees and float gains read 8.0x.
    choices = sample_choices(uniform_attach(1), 200_000, [1])
    dn_summands(pref_attach(1), uniform_attach(1), choices[:, :100])
    tracemalloc.start()
    try:
        dn_summands(pref_attach(1), uniform_attach(1), choices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * choices.nbytes


def test_summand_rejects_edge_mismatch():
    traj = sample_trajectory(pref_attach(2), 10, 0)
    with pytest.raises(ValueError):
        dn_summands(pref_attach(1), uniform_attach(1), traj.choices[None])[0]

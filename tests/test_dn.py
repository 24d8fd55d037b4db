"""dn_estimate's degree-sum kernel against the per-step loop and the oracle.

reference_dn is the per-step definition: replay the state at every step,
build both one-step distributions and take their dense TV. The kernel
computes the same sum from the degree-sum identity, so the two agree up to
float rounding; identical models give exactly 0.
"""

import math

import numpy as np
import pytest

from dyngof.gof import dn_estimate, dn_summands
from dyngof.models import (
    IncrementalReplay,
    Trajectory,
    affine_pref_attach,
    pref_attach,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.oracle import enumerate_trajectories, exact_dn
from dyngof.rng import TAG_DISTANCE, derive_seed
from dyngof.sampling import tv_dense

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


def test_summand_rejects_edge_mismatch():
    traj = sample_trajectory(pref_attach(2), 10, 0)
    with pytest.raises(ValueError):
        dn_summands(pref_attach(1), uniform_attach(1), traj.choices[None])[0]

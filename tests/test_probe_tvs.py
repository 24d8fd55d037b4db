"""The batched statistic kernel against the per-probe reference.

reference_tvs is the statistic's loop as it was before the kernel: one
incremental replay, then step_distribution, empirical_measure and
tv_distance at each probe. probe_tvs and test_statistic must reproduce
its per-probe values and S bit for bit.
"""

import numpy as np
import pytest

from dyngof import sampling
from dyngof.gof import test_statistic
from dyngof.models import (
    IncrementalReplay,
    affine_pref_attach,
    pref_attach,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.sampling import ProbePlan, empirical_measure, probe_tvs, sample_probe_points, tv_distance


def reference_tvs(traj, model, plan):
    scan = IncrementalReplay(traj)
    tvs = []
    for r in plan.points:
        r = int(r)
        scan.advance(r - 1)
        emp = empirical_measure(traj, r, plan.width)
        tvs.append(tv_distance(emp, step_distribution(model, scan.state())))
    return tvs


def models(m):
    return [pref_attach(m), uniform_attach(m), affine_pref_attach(0.5, m), affine_pref_attach(2.5, m)]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_matches_reference(traj, model, plan):
    want = reference_tvs(traj, model, plan)
    np.testing.assert_array_equal(bits(probe_tvs(traj, model, plan)), bits(want))
    result = test_statistic(traj, model, plan)
    np.testing.assert_array_equal(bits(result.per_probe_tv), bits(want))
    assert result.S.hex() == float(sum(want)).hex()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", range(12))
def test_fuzzed_plans_match_reference(m, case):
    draw = np.random.default_rng([m, case, 17])
    n = int(draw.integers(4, 300))
    gen, null = models(m)[case % 4], models(m)[(case // 4 + case) % 4]
    traj = sample_trajectory(gen, n, int(draw.integers(1 << 30)))
    width = (1, n - 2, int(draw.integers(1, n - 1)))[case % 3]
    plan = sample_probe_points(n, int(draw.integers(1, 400)), width, draw)
    assert_matches_reference(traj, null, plan)


@pytest.mark.parametrize("budget", [1, 7, 64, 1000])
@pytest.mark.parametrize("model", models(2), ids=lambda model: model.label)
def test_batch_budget_does_not_change_bits(budget, model, monkeypatch):
    monkeypatch.setattr(sampling, "BATCH_ELEMENTS", budget)
    traj = sample_trajectory(affine_pref_attach(1.0, 2), 200, seed=budget)
    plan = sample_probe_points(200, 150, 13, np.random.default_rng(budget))
    assert_matches_reference(traj, model, plan)


def test_window_larger_than_batch_budget():
    n, m = 2200, 2
    traj = sample_trajectory(pref_attach(m), n, seed=5)
    plan = sample_probe_points(n, 5, 2100, np.random.default_rng(5))
    assert plan.width * m > sampling.BATCH_ELEMENTS
    for model in models(m):
        assert_matches_reference(traj, model, plan)


def test_repeated_and_extreme_probes():
    traj = sample_trajectory(uniform_attach(3), 50, seed=8)
    plan = ProbePlan(points=np.array([2, 2, 2, 9, 9, 40]), width=10)
    for model in models(3):
        assert_matches_reference(traj, model, plan)


@pytest.mark.parametrize("model", models(1) + models(3), ids=lambda model: model.label)
def test_array_time_matches_scalar_calls(model):
    draw = np.random.default_rng(model.m)
    t = draw.integers(1, 10**6, size=300)
    degrees = model.m + draw.integers(0, 2 * model.m * t)
    batched = model.attachment_probability(degrees, t)
    scalar = [model.attachment_probability(np.array([d]), int(s))[0] for d, s in zip(degrees, t)]
    np.testing.assert_array_equal(bits(batched), bits(scalar))

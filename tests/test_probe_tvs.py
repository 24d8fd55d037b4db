"""The batched statistic kernel against the per-probe references.

reference_tvs is the statistic's loop as it was before the kernel: one
incremental replay, then step_distribution, empirical_measure and
tv_distance at each probe. The kernel sums max(c_v - lam*w_v, 0) instead
of tv_distance's |q_v - p_v| - p_v, in another order, so its per-probe
values match the reference to RTOL and its kept counts match exactly. For
m = 1 the rational oracle gives exact values, which the kernel matches to
ORACLE_RTOL.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dyngof import sampling
from dyngof.gof import TestConfig, statistic_samples, test_statistic
from dyngof.models import (
    IncrementalReplay,
    Trajectory,
    affine_pref_attach,
    pref_attach,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.oracle import _exact_probe_tv
from dyngof.sampling import ProbePlan, empirical_measure, probe_tvs, sample_probe_points, tv_distance

RTOL, ATOL = 1e-12, 1e-15
ORACLE_RTOL = 1e-13


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
    tvs, kept = probe_tvs(traj, model, plan)
    want = reference_tvs(traj, model, plan)
    np.testing.assert_allclose(tvs, want, rtol=RTOL, atol=ATOL)
    denoms = [empirical_measure(traj, int(r), plan.width).denom for r in plan.points]
    np.testing.assert_array_equal(kept, denoms)
    result = test_statistic(traj, model, plan)
    np.testing.assert_array_equal(bits(result.per_probe_tv), bits(tvs))
    assert result.S.hex() == float(sum(tvs)).hex()
    assert result.S == pytest.approx(math.fsum(want), rel=RTOL, abs=ATOL)
    assert result.kept == sum(denoms)


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
    traj = sample_trajectory(affine_pref_attach(1.0, 2), 200, seed=budget)
    plan = sample_probe_points(200, 150, 13, np.random.default_rng(budget))
    tvs, kept = probe_tvs(traj, model, plan)
    monkeypatch.setattr(sampling, "BATCH_ELEMENTS", budget)
    batched_tvs, batched_kept = probe_tvs(traj, model, plan)
    np.testing.assert_array_equal(bits(batched_tvs), bits(tvs))
    np.testing.assert_array_equal(batched_kept, kept)
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


@pytest.mark.parametrize("width_kind", range(3), ids=["width-1", "width-n-2", "width-random"])
@pytest.mark.parametrize("null_kind", range(4), ids=[model.label for model in models(1)])
def test_fuzzed_plans_match_rational_oracle(null_kind, width_kind):
    null = models(1)[null_kind]
    draw = np.random.default_rng([null_kind, width_kind, 31])
    for gen in models(1):
        n = int(draw.integers(4, 61))
        traj = sample_trajectory(gen, n, int(draw.integers(1 << 30)))
        width = (1, n - 2, int(draw.integers(1, n - 1)))[width_kind]
        points = sample_probe_points(n, int(draw.integers(1, 60)), width, draw).points
        plan = ProbePlan(points=np.sort(np.concatenate([points, points[:2]])), width=width)
        choices = tuple(int(v) for v in traj.choices[:, 0])
        want = [float(_exact_probe_tv(choices, null, int(r), width)) for r in plan.points]
        np.testing.assert_allclose(probe_tvs(traj, null, plan)[0], want, rtol=ORACLE_RTOL, atol=0)


def assert_matches_oracle(traj, model, plan):
    choices = tuple(int(v) for v in traj.choices[:, 0])
    want = [float(_exact_probe_tv(choices, model, int(r), plan.width)) for r in plan.points]
    np.testing.assert_allclose(probe_tvs(traj, model, plan)[0], want, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_early_probes_of_widest_window(m):
    # r in {2, 3} with width n - 2: the window spans the whole trajectory and
    # lam = D/(r-1) >= 1, so the candidate bound (r-1)/D is at most 1 and
    # nearly every hit vertex is expanded.
    for case in range(8):
        n = 5 + 7 * case
        traj = sample_trajectory(models(m)[case % 4], n, seed=case)
        plan = ProbePlan(points=np.array([2, 2, 3, 3]), width=n - 2)
        kept = probe_tvs(traj, pref_attach(m), plan)[1]
        assert np.all(kept >= plan.points - 1)
        for model in models(m):
            assert_matches_reference(traj, model, plan)
            if m == 1:
                assert_matches_oracle(traj, model, plan)


@pytest.mark.parametrize("m", [1, 2])
def test_star_trajectory(m):
    # Every choice targets vertex 1: the hub is a candidate at every probe and
    # crowded in every window, with c = D and a zero term (lam*w = D*p <= c).
    n = 60
    traj = Trajectory(n, m, np.ones((n - 1, m), dtype=np.int64), "star", 0)
    plan = ProbePlan(points=np.arange(2, n - 8), width=9)
    for model in models(m):
        assert_matches_reference(traj, model, plan)
        if m == 1:
            assert_matches_oracle(traj, model, plan)
    tvs, kept = probe_tvs(traj, pref_attach(m), plan)
    np.testing.assert_array_equal(kept, np.full(plan.count, 9 * m))
    # pa at time r - 1: deg_1 = r*m of total 2m(r - 1), so TV = 1 - r / (2(r - 1)).
    r = plan.points
    np.testing.assert_allclose(tvs, 1 - r / (2 * (r - 1)), rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("m", [1, 2])
def test_uniform_null_exact_zeros(m):
    # On small uniform trajectories many windows hit every alive vertex
    # equally, where the reference TV is exactly 0.
    null, zeros = uniform_attach(m), 0
    for seed in range(40):
        n = 4 + seed % 9
        traj = sample_trajectory(uniform_attach(m), n, seed)
        for width in range(1, n - 1):
            plan = ProbePlan(points=np.arange(2, n + 2 - width), width=width)
            tvs = probe_tvs(traj, null, plan)[0]
            assert np.all((tvs >= 0) & (tvs <= 1))
            exact = np.asarray(reference_tvs(traj, null, plan)) == 0
            assert np.all(np.abs(tvs[exact]) <= 1e-15)
            zeros += int(exact.sum())
            assert_matches_reference(traj, null, plan)
            if m == 1:
                assert_matches_oracle(traj, null, plan)
    assert zeros >= 100


@pytest.mark.parametrize("model", models(1) + models(3), ids=lambda model: model.label)
def test_array_time_matches_scalar_calls(model):
    draw = np.random.default_rng(model.m)
    t = draw.integers(1, 10**6, size=300)
    degrees = model.m + draw.integers(0, 2 * model.m * t)
    batched = model.attachment_probability(degrees, t)
    scalar = [model.attachment_probability(np.array([d]), int(s))[0] for d, s in zip(degrees, t)]
    np.testing.assert_array_equal(bits(batched), bits(scalar))


def block_plans(n, width, count, draw):
    # Sorted draws, with repeated points and the first and last feasible starts.
    points = sample_probe_points(n, count, width, draw).points
    extra = [2, 2, n + 1 - width, n + 1 - width, points[0]]
    return ProbePlan(points=np.sort(np.concatenate([points, extra])), width=width)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", range(6))
def test_block_matches_each_replication_alone(m, case):
    draw = np.random.default_rng([m, case, 53])
    n = int(draw.integers(4, 200))
    width = (1, n - 2, int(draw.integers(1, n - 1)))[case % 3]
    gen, null = models(m)[case % 4], models(m)[(case + 1) % 4]
    reps = int(draw.integers(1, 9))
    trajs = [sample_trajectory(gen, n, int(draw.integers(1 << 30))) for _ in range(reps)]
    count = int(draw.integers(1, 2 * n))  # a block's plans share one probe count
    plans = [block_plans(n, width, count, draw) for _ in range(reps)]
    points = np.stack([plan.points for plan in plans])
    (tvs,), kept = sampling.probe_tvs_block(np.stack([t.choices for t in trajs]), [null], points, width)
    at = np.arange(reps + 1) * points.shape[1]
    for k, (traj, plan) in enumerate(zip(trajs, plans)):
        alone_tvs, alone_kept = probe_tvs(traj, null, plan)
        np.testing.assert_array_equal(bits(tvs[at[k] : at[k + 1]]), bits(alone_tvs))
        np.testing.assert_array_equal(kept[at[k] : at[k + 1]], alone_kept)


@pytest.mark.parametrize("reps", [1, 2, 10])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("data", range(4), ids=[model.label for model in models(1)])
def test_each_null_row_matches_its_one_null_pass(data, m, reps):
    # The shared pass scores every null on the hits, kept counts and cut bounds it builds once.
    draw = np.random.default_rng([data, m, reps, 71])
    n = int(draw.integers(4, 200))
    width = int(draw.integers(1, n - 1))
    m1, m0 = models(m)[data], models(m)[(data + 1) % 4]
    choices = np.stack([sample_trajectory(m1, n, int(draw.integers(1 << 30))).choices for _ in range(reps)])
    count = int(draw.integers(1, 2 * n))
    points = np.stack([block_plans(n, width, count, draw).points for _ in range(reps)])
    alone = {null: sampling.probe_tvs_block(choices, [null], points, width) for null in models(m)}
    for nulls in ([m1, m0], [m0, m0], [models(m)[(data + 2) % 4], m1, models(m)[(data + 3) % 4]]):
        tvs, kept = sampling.probe_tvs_block(choices, nulls, points, width)
        assert len(tvs) == len(nulls)
        for row, null in zip(tvs, nulls):
            np.testing.assert_array_equal(bits(row), bits(alone[null][0][0]))
        np.testing.assert_array_equal(kept, alone[m1][1])


def test_second_null_adds_little_memory():
    # Each null's full-length weights and cut go once its candidates are picked, so a second null holds only
    # the first's candidates and its probe row, not the null-free layer twice.
    n, null = 20_000, pref_attach()
    cfg = TestConfig(null_model=null, D=1.0)
    choices = np.stack([sample_trajectory(null, n, seed=3).choices])
    points = sampling.probe_points(n, cfg.probes_for(n), cfg.width_for(n), [np.random.default_rng(3)])
    peaks = []
    for nulls in ([null], [null, uniform_attach()]):
        tracemalloc.start()
        sampling.probe_tvs_block(choices, nulls, points, cfg.width_for(n))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.10 * peaks[0]


@pytest.mark.parametrize("budget", [1, 7, 64, 4096, 10**6])
@pytest.mark.parametrize("model", models(2), ids=lambda model: model.label)
def test_block_and_batch_budget_do_not_change_bits(budget, model, monkeypatch):
    # The budget sets both the replications per block and the pairs per batch.
    cfg = TestConfig(null_model=model, D=1.0, width_fraction=0.2)
    want = statistic_samples(pref_attach(2), 120, cfg, 40, seed=budget)
    monkeypatch.setattr(sampling, "BATCH_ELEMENTS", budget)
    got = statistic_samples(pref_attach(2), 120, cfg, 40, seed=budget)
    np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("case, message", [
    ("n", "must be a nonempty stack"),
    ("m", "disagree on edges per arrival"),
    ("infeasible", "infeasible plan"),
    ("unsorted", "infeasible plan"),
    ("below-two", "infeasible plan"),
    ("width-zero", "infeasible plan"),
    ("count", "2 trajectories but 1 plans"),
    ("float", "^points: expected integers, got float64 values$"),  # ProbePlan's message
    ("width-2.0", "width: expected an integer"),
    ("width-2.5", "width: expected an integer"),
    ("width-True", "width: expected an integer"),
    ("no-points", "plan needs at least one probe point"),
    ("1-D", "points: expected 2-D"),
    ("3-D", "points: expected 2-D"),
    ("huge", "infeasible plan: windows must fit"),  # r + width would wrap to a negative int64
    ("uint64", "infeasible plan: probe points must be sorted"),  # 2**63 casts to -2**63
    ("no-nulls", "need at least one null model"),
    ("null-m", "disagree on edges per arrival"),  # the second null's m is not the block's
    ("bare-model", "^nulls must be a list of models, got ModelSpec"),
    ("string-null", "^nulls must be a list of models, got 'pa'$"),
    ("string-in-nulls", r"^nulls must be a list of models, got \('x',\)$"),
])
def test_block_contract_is_checked(case, message):
    trajs = [sample_trajectory(pref_attach(), 200, seed) for seed in (1, 2)]
    points, width, nulls = np.array([[50, 120], [50, 120]]), 20, [pref_attach()]
    if case == "m":
        trajs = [sample_trajectory(pref_attach(2), 200, seed) for seed in (1, 2)]
    elif case == "infeasible":
        points[1] = [50, 190]
    elif case == "unsorted":
        points[1] = [120, 50]  # a ProbePlan rejects these three; raw points are checked by the kernel
    elif case == "below-two":
        points[1] = [1, 120]
    elif case == "count":
        points = points[:1]
    elif case == "float":
        points = points + 0.5
    elif case.startswith("width-"):
        width = {"2.0": 2.0, "2.5": 2.5, "True": True, "zero": 0}[case[6:]]
    elif case == "no-points":
        points = points[:, :0]
    elif case == "1-D":
        points = points[0]
    elif case == "3-D":
        points = points[:, None]
    elif case == "huge":
        points[1] = [50, 2**63 - 5]
    elif case == "uint64":
        points = np.array([[50, 120], [50, 2**63]], dtype=np.uint64)
    elif case == "no-nulls":
        nulls = []
    elif case == "null-m":
        nulls = [pref_attach(), uniform_attach(2)]
    elif case == "bare-model":
        nulls = pref_attach()
    elif case == "string-null":
        nulls = "pa"
    elif case == "string-in-nulls":
        nulls = ("x",)
    choices = np.stack([t.choices for t in trajs])
    if case == "n":
        choices = choices[0]  # one trajectory's (n-1, m) array, not a stack
    with pytest.raises(ValueError, match=message):
        sampling.probe_tvs_block(choices, nulls, points, width)


def malformed(plan, n, draw):
    """(row, width, what): plan broken in one way, what naming the rule it breaks."""
    row, width = plan.points.copy(), plan.width
    what = ("float", "bool", "str", "width", "empty", "unsorted", "below-two", "horizon")[int(draw.integers(8))]
    if what == "float":
        row = row + (0.0, 0.5)[int(draw.integers(2))]
    elif what == "bool":
        row = row > 3
    elif what == "str":
        row = row.astype(str)
    elif what == "width":
        width = (0, -1, 2.0, 2.5, True, "3")[int(draw.integers(6))]
    elif what == "empty":
        row = row[:0].astype((np.int64, np.float64)[int(draw.integers(2))])
    elif what == "unsorted":
        row = np.append(row, row[-1] - 1)
    elif what == "below-two":
        row[0] = draw.integers(-3, 2)
    else:  # the last window ends past arrival n
        row[-1] = n + 2 - width + draw.integers(0, 3)
    return row, width, what


@pytest.mark.parametrize("case", range(40))
def test_fuzzed_plans_are_checked_by_one_rule(case):
    # Every caller of the plan rule raises ValueError, never IndexError or TypeError, with one
    # message; the horizon is the kernel's alone to check. Valid plans keep their bits in a block.
    draw = np.random.default_rng([case, 67])
    n = int(draw.integers(4, 60))
    trajs = [sample_trajectory(pref_attach(), n, seed) for seed in (case, case + 100)]
    choices = np.stack([t.choices for t in trajs])
    for _ in range(10):
        width = int(draw.integers(1, n - 1))
        plans = [sample_probe_points(n, 3, width, draw) for _ in trajs]
        (tvs,), kept = sampling.probe_tvs_block(choices, [pref_attach()], np.stack([p.points for p in plans]), width)
        for k, (traj, plan) in enumerate(zip(trajs, plans)):
            alone_tvs, alone_kept = probe_tvs(traj, pref_attach(), plan)
            np.testing.assert_array_equal(bits(tvs[3 * k : 3 * k + 3]), bits(alone_tvs))
            np.testing.assert_array_equal(kept[3 * k : 3 * k + 3], alone_kept)

        row, width, what = malformed(plans[0], n, draw)
        with pytest.raises(ValueError) as in_kernel:
            sampling.probe_tvs_block(choices[:1], [pref_attach()], [row], width)
        if what == "horizon":
            assert str(in_kernel.value) == "infeasible plan: windows must fit the trajectory"
            ProbePlan(row, width)
            continue
        with pytest.raises(ValueError) as in_plan:
            ProbePlan(row, width)
        assert str(in_plan.value) == str(in_kernel.value)
        rng = np.random.default_rng(case)
        state = rng.bit_generator.state
        count = (0, -2, 2.0, True, "3", 3)[int(draw.integers(6))]
        if what == "width" or count != 3:
            with pytest.raises(ValueError):
                sampling.probe_points(n, count, width if what == "width" else 1, [rng])
            assert rng.bit_generator.state == state

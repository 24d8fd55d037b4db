from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from dyngof.gof import test_statistic
from dyngof.models import ProbVector, Trajectory, pref_attach, sample_trajectory
from dyngof.sampling import (
    EmpiricalMeasure,
    ProbePlan,
    counting_function,
    empirical_measure,
    probe_points,
    sample_probe_points,
    tv_dense,
    tv_distance,
    tv_via_counting,
)


def traj_from(choice_rows, m=1):
    rows = np.asarray(choice_rows, dtype=np.int64)
    return Trajectory(len(rows) + 1, m, rows.reshape(len(rows), m), "fixture", 0)


def pv(values):
    values = np.asarray(values, dtype=float)
    return ProbVector(t=len(values) + 1, mass=values)


def masses(emp):
    """The empirical measure as exact rationals; requires denom > 0."""
    if emp.denom == 0:
        raise ValueError("empty empirical measure")
    return {v: Fraction(c, emp.denom) for v, c in emp.counts.items()}


def densify(emp):
    """The empirical measure as a dense distribution over {1, ..., t-1}."""
    if emp.denom == 0:
        raise ValueError("empty empirical measure")
    mass = np.zeros(emp.t - 1)
    for v, c in emp.counts.items():
        mass[v - 1] = c / emp.denom
    return ProbVector(t=emp.t, mass=mass)


class TestSampleProbePoints:
    def test_tight_horizon_limits_range(self):
        plan = sample_probe_points(12, 3, 10, np.random.default_rng(0))
        assert set(plan.points.tolist()) <= {2, 3}

    def test_sorted_within_range(self):
        plan = sample_probe_points(100, 5, 10, np.random.default_rng(1))
        pts = plan.points.tolist()
        assert pts == sorted(pts)
        assert len(pts) == 5
        assert all(2 <= r <= 91 for r in pts)

    def test_window_exceeding_horizon_rejected(self):
        with pytest.raises(ValueError, match="window exceeds horizon"):
            sample_probe_points(11, 3, 10, np.random.default_rng(0))

    def test_uniform_over_feasible_range(self):
        plan = sample_probe_points(20, 100_000, 10, np.random.default_rng(1234))
        counts = np.bincount(plan.points, minlength=12)[2:12]
        assert counts.sum() == 100_000
        assert scipy.stats.chisquare(counts).pvalue > 0.01

    @pytest.mark.parametrize("K", [1, 2, 9])
    def test_rows_are_single_plans_bit_for_bit(self, K):
        for n, count, width in [(12, 3, 10), (100, 5, 10), (300, 150, 29)]:
            points = probe_points(n, count, width, [np.random.default_rng([K, n, k]) for k in range(K)])
            assert points.shape == (K, count) and points.dtype == np.int64
            for k in range(K):
                plan = sample_probe_points(n, count, width, np.random.default_rng([K, n, k]))
                assert points[k].tobytes() == plan.points.tobytes()

    def test_checks_come_before_any_draw(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        for args, message in [((11, 3, 10), "window exceeds horizon"), ((100, 0, 10), "at least one probe point")]:
            with pytest.raises(ValueError, match=message):
                probe_points(*args, [])
            with pytest.raises(ValueError, match=message):
                probe_points(*args, [rng])
            assert rng.bit_generator.state == state
        assert probe_points(100, 5, 10, []).shape == (0, 5)


class TestProbePlan:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ProbePlan(points=np.array([5, 3]), width=2)

    def test_rejects_points_below_two(self):
        with pytest.raises(ValueError):
            ProbePlan(points=np.array([1, 3]), width=2)

    def test_rejects_empty_plan_and_nonpositive_width(self):
        with pytest.raises(ValueError, match="plan needs at least one probe point"):
            ProbePlan(points=np.array([], dtype=np.int64), width=2)
        with pytest.raises(ValueError, match="width must be positive"):
            ProbePlan(points=np.array([2, 3]), width=0)

    def test_repeats_allowed(self):
        plan = ProbePlan(points=np.array([3, 3, 3]), width=2)
        assert plan.count == 3

    @pytest.mark.parametrize(
        "points", [np.array([2.7, 3.9]), np.array([2.0, 3.0]), [2, 3.5], np.array([True, True]), ["2", "3"]]
    )
    def test_rejects_non_integral_points(self, points):
        # Truncating [2.7, 3.9] to [2, 3] scored a plan nobody asked for.
        with pytest.raises(ValueError, match="points: expected integers"):
            ProbePlan(points=points, width=3)

    @pytest.mark.parametrize("points", [np.array([2, 2**63], dtype=np.uint64), np.array([2**63 - 1, -2])])
    def test_rejects_points_that_wrap_in_int64(self, points):
        # In int64 the second point is below the first (2**63 casts to -2**63), and their difference wraps above 0.
        with pytest.raises(ValueError, match="sorted"):
            ProbePlan(points=points, width=3)

    @pytest.mark.parametrize("width", [2.5, 3.0, True, "3"])
    def test_rejects_non_integral_width(self, width):
        with pytest.raises(ValueError, match="width: expected an integer"):
            ProbePlan(points=np.array([2, 3]), width=width)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_numpy_integers_pass(self, dtype):
        plan = ProbePlan(points=np.array([2, 3], dtype=dtype), width=np.int64(3))
        assert plan.points.dtype == np.int64 and plan.points.tolist() == [2, 3]
        assert type(plan.width) is int and plan.width == 3

    def test_feasibility(self):
        # The last window [9, 11) ends at arrival 10: it fits n = 10 and not n = 9.
        plan = ProbePlan(points=np.array([2, 9]), width=2)
        test_statistic(sample_trajectory(pref_attach(), 10, 1), pref_attach(), plan)
        with pytest.raises(ValueError, match="infeasible plan"):
            test_statistic(sample_trajectory(pref_attach(), 9, 1), pref_attach(), plan)


class TestEmpiricalMeasure:
    def test_window_starting_at_probe(self):
        # arrivals 2 and 3 fall in [2, 4); both target vertex 1
        emp = empirical_measure(traj_from([[1], [1], [2]]), t=2, width=2)
        assert emp.counts == {1: 2}
        assert emp.denom == 2
        assert masses(emp) == {1: Fraction(1)}

    def test_excludes_targets_at_or_after_probe(self):
        # arrivals 3, 4 in [3, 5); arrival 4 targets vertex 3, outside {1, 2}
        emp = empirical_measure(traj_from([[1], [2], [3]]), t=3, width=2)
        assert emp.counts == {2: 1}
        assert emp.denom == 1

    def test_full_window_without_exclusions(self):
        emp = empirical_measure(traj_from([[1], [1], [1], [1]]), t=2, width=3)
        assert emp.denom == 3 * 1

    def test_multi_edge_counts_individual_choices(self):
        traj = traj_from([[1, 1], [2, 1], [3, 2]], m=2)
        emp = empirical_measure(traj, t=2, width=3)
        # six individual choices in the window; only the three 1s are in-domain
        assert emp.counts == {1: 3}
        assert emp.denom == 3

    def test_window_bounds_checked(self):
        traj = traj_from([[1], [1], [2]])
        with pytest.raises(ValueError):
            empirical_measure(traj, t=1, width=2)
        with pytest.raises(ValueError):
            empirical_measure(traj, t=3, width=3)
        # Width 0 would give an empty measure; a negative one would slice rows from the end.
        for width in (0, -1):
            with pytest.raises(ValueError, match="width must be positive"):
                empirical_measure(traj, t=2, width=width)

    def test_depends_only_on_window_rows(self):
        a = traj_from([[1], [1], [2], [3]])
        b = traj_from([[1], [1], [2], [1]])  # differs only after the window
        ea = empirical_measure(a, t=2, width=2)
        eb = empirical_measure(b, t=2, width=2)
        assert ea == eb

    def test_rational_masses_sum_to_one(self):
        traj = sample_trajectory(pref_attach(m=2), 60, seed=8)
        emp = empirical_measure(traj, t=11, width=20)
        assert sum(masses(emp).values()) == Fraction(1)


class TestTvDistance:
    def test_point_mass_vs_pa_conditional(self):
        emp = EmpiricalMeasure(t=3, width=2, counts={1: 2}, denom=2)
        assert tv_distance(emp, pv([0.75, 0.25])) == pytest.approx(0.25)

    def test_identity(self):
        emp = EmpiricalMeasure(t=3, width=4, counts={1: 3, 2: 1}, denom=4)
        assert tv_distance(emp, pv([0.75, 0.25])) == 0.0

    def test_disjoint_support(self):
        emp = EmpiricalMeasure(t=3, width=2, counts={2: 2}, denom=2)
        assert tv_distance(emp, pv([1.0, 0.0])) == pytest.approx(1.0)

    def test_time_mismatch(self):
        emp = EmpiricalMeasure(t=4, width=2, counts={1: 1}, denom=1)
        with pytest.raises(ValueError, match="time mismatch"):
            tv_distance(emp, pv([0.5, 0.5]))

    def test_empty_window_is_maximal_distance(self):
        emp = EmpiricalMeasure(t=3, width=2, counts={}, denom=0)
        assert tv_distance(emp, pv([0.5, 0.5])) == 1.0

    def test_agrees_with_dense_computation(self):
        rng = np.random.default_rng(77)
        traj = sample_trajectory(pref_attach(), 120, seed=5)
        for _ in range(50):
            t = int(rng.integers(2, 100))
            emp = empirical_measure(traj, t=t, width=20)
            x = rng.random(t - 1)
            q = pv(x / x.sum())
            assert tv_distance(emp, q) == pytest.approx(tv_dense(densify(emp), q), abs=1e-12)

    def test_exact_rational_crosscheck(self):
        emp = EmpiricalMeasure(t=4, width=3, counts={1: 2, 3: 1}, denom=3)
        q = pv([0.5, 0.25, 0.25])
        exact = sum(
            abs(Fraction(emp.counts.get(v, 0), 3) - Fraction(q.mass[v - 1])) for v in (1, 2, 3)
        ) / 2
        assert tv_distance(emp, q) == pytest.approx(float(exact), abs=1e-15)

    def test_bounds_under_fuzz(self):
        rng = np.random.default_rng(3)
        traj = sample_trajectory(pref_attach(), 200, seed=10)
        for _ in range(200):
            t = int(rng.integers(2, 180))
            emp = empirical_measure(traj, t=t, width=int(rng.integers(1, 20)))
            x = rng.random(t - 1) + 1e-12
            assert 0.0 <= tv_distance(emp, pv(x / x.sum())) <= 1.0


class TestTvDense:
    def test_identical(self):
        assert tv_dense(pv([0.5, 0.5]), pv([0.5, 0.5])) == 0.0

    def test_disjoint(self):
        assert tv_dense(pv([1.0, 0.0]), pv([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert tv_dense(pv([0.75, 0.25]), pv([0.5, 0.5])) == pytest.approx(0.25)

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        x, y = rng.random(10), rng.random(10)
        p, q = pv(x / x.sum()), pv(y / y.sum())
        assert tv_dense(p, q) == tv_dense(q, p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tv_dense(pv([1.0]), pv([0.5, 0.5]))


class TestCountingFunction:
    def test_identical_halves(self):
        cf = counting_function(pv([0.5, 0.5]), pv([0.5, 0.5]))
        assert cf == {(0.5, 0.5): 2}

    def test_per_vertex_pairing(self):
        cf = counting_function(pv([1.0, 0.0]), pv([0.75, 0.25]))
        assert cf == {(1.0, 0.75): 1, (0.0, 0.25): 1}

    def test_entry_counts_sum_to_domain_size(self):
        rng = np.random.default_rng(12)
        x, y = rng.random(37), rng.random(37)
        cf = counting_function(pv(x / x.sum()), pv(y / y.sum()))
        assert sum(cf.values()) == 37

    def test_q_marginal_mass(self):
        rng = np.random.default_rng(13)
        x, y = rng.random(20), rng.random(20)
        cf = counting_function(pv(x / x.sum()), pv(y / y.sum()))
        assert sum(n * q for (_, q), n in cf.items()) == pytest.approx(1.0, abs=1e-12)

    def test_empirical_keys_are_exact_rationals(self):
        emp = EmpiricalMeasure(t=3, width=3, counts={1: 2, 2: 1}, denom=3)
        cf = counting_function(emp, pv([0.75, 0.25]))
        assert (Fraction(2, 3), 0.75) in cf
        assert (Fraction(1, 3), 0.25) in cf

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            counting_function(pv([1.0]), pv([0.5, 0.5]))


class TestTvViaCounting:
    def test_zero_on_identical(self):
        assert tv_via_counting(counting_function(pv([0.5, 0.5]), pv([0.5, 0.5]))) == 0.0

    def test_hand_value(self):
        cf = counting_function(pv([1.0, 0.0]), pv([0.75, 0.25]))
        assert tv_via_counting(cf) == pytest.approx(0.25)

    def test_matches_dense_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dim = int(rng.integers(2, 101))
            x, y = rng.random(dim), rng.random(dim)
            p, q = pv(x / x.sum()), pv(y / y.sum())
            assert abs(tv_via_counting(counting_function(p, q)) - tv_dense(p, q)) <= 1e-12

    def test_matches_sparse_on_empirical_measures(self):
        traj = sample_trajectory(pref_attach(), 100, seed=21)
        rng = np.random.default_rng(22)
        for t in (5, 20, 60):
            emp = empirical_measure(traj, t=t, width=15)
            x = rng.random(t - 1)
            q = pv(x / x.sum())
            cf = counting_function(emp, q)
            assert abs(tv_via_counting(cf) - tv_distance(emp, q)) <= 1e-12

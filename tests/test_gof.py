import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dyngof.gof import (
    FixedAlpha,
    RadiusEstimate,
    SampledAlpha,
    TestConfig,
    dn_estimate,
    sampling_radius_estimate,
    statistic_samples,
    test_dynamic_graph,
    test_statistic,
    threshold_radius,
)
from dyngof.models import (
    Trajectory,
    affine_pref_attach,
    pref_attach,
    replay,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof import sampling
from dyngof.harness import calibrate_D, tail_exponent_diagnostic
from dyngof.oracle import exact_dn, exact_expected_statistic
from dyngof.rng import TAG_PROBES, TAG_RADIUS, TAG_TRAJECTORY, derive_seed, stream
from dyngof.sampling import ProbePlan, empirical_measure, sample_probe_points, tv_dense, tv_distance

PA = pref_attach()
UNI = uniform_attach()


def traj_from(choice_rows, m=1):
    rows = np.asarray(choice_rows, dtype=np.int64)
    return Trajectory(len(rows) + 1, m, rows.reshape(len(rows), m), "fixture", 0)


def plan_at(points, width):
    return ProbePlan(points=np.array(points, dtype=np.int64), width=width)


class TestTestStatistic:
    def test_probe_where_estimate_matches_null(self):
        # window [2, 4): both in-domain choices hit vertex 1, matching p = [1]
        result = test_statistic(traj_from([[1], [1], [2]]), PA, plan_at([2], 2))
        assert result.S == 0.0
        assert result.per_probe_tv == [0.0]

    def test_probe_with_concentrated_window(self):
        # window [3, 5) targets 2, 2; null conditional from degrees [3, 1]
        result = test_statistic(traj_from([[1], [2], [2]]), PA, plan_at([3], 2))
        assert result.per_probe_tv == [pytest.approx(0.75)]

    def test_sum_over_probes(self):
        traj = sample_trajectory(PA, 60, seed=2)
        plan = plan_at([5, 5, 20, 41], 10)
        result = test_statistic(traj, PA, plan)
        assert result.S == sum(result.per_probe_tv)
        assert len(result.per_probe_tv) == 4
        assert all(0.0 <= tv <= 1.0 for tv in result.per_probe_tv)

    def test_repeated_probes_contribute_identically(self):
        traj = sample_trajectory(PA, 60, seed=2)
        result = test_statistic(traj, PA, plan_at([20, 20], 10))
        assert result.per_probe_tv[0] == result.per_probe_tv[1]

    def test_matches_direct_composition(self):
        traj = sample_trajectory(affine_pref_attach(1.0), 80, seed=6)
        plan = plan_at([4, 17, 50], 12)
        result = test_statistic(traj, PA, plan)
        for r, got in zip(plan.points, result.per_probe_tv):
            probs = step_distribution(PA, replay(traj, int(r) - 1))
            emp = empirical_measure(traj, int(r), plan.width)
            assert got == pytest.approx(tv_distance(emp, probs), rel=1e-12, abs=1e-15)

    def test_infeasible_plan_rejected(self):
        traj = sample_trajectory(PA, 20, seed=1)
        with pytest.raises(ValueError, match="infeasible plan"):
            test_statistic(traj, PA, plan_at([15], 10))

    def test_m_mismatch_rejected(self):
        traj = sample_trajectory(pref_attach(m=2), 20, seed=1)
        with pytest.raises(ValueError, match="edges per arrival"):
            test_statistic(traj, PA, plan_at([3], 2))

    def test_reverse_triangle_per_probe(self):
        # tv(p1, p0) <= tv(mu, p0) + tv(mu, p1) at every probed state
        traj = sample_trajectory(UNI, 100, seed=11)
        for r in (5, 23, 61):
            state = replay(traj, r - 1)
            p0 = step_distribution(PA, state)
            p1 = step_distribution(UNI, state)
            emp = empirical_measure(traj, r, 15)
            assert tv_dense(p1, p0) <= tv_distance(emp, p0) + tv_distance(emp, p1) + 1e-12


class TestConfigValidation:
    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError, match="D must be positive"):
            TestConfig(null_model=PA, D=0.0)

    @pytest.mark.parametrize("D", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_d(self, D):
        with pytest.raises(ValueError, match="D must be positive and finite"):
            TestConfig(null_model=PA, D=D)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            TestConfig(null_model=PA, D=1.0, width_fraction=1.5)
        with pytest.raises(ValueError):
            TestConfig(null_model=PA, D=1.0, probe_fraction=0.0)

    def test_scaling_helpers(self):
        tc = TestConfig(null_model=PA, D=1.0, width_fraction=0.1, probe_fraction=0.5)
        assert tc.width_for(500) == 50
        assert tc.probes_for(500) == 250
        assert tc.width_for(13) == 2

    def test_alpha_mode_validation(self):
        with pytest.raises(ValueError):
            SampledAlpha(replications=1)
        with pytest.raises(ValueError):
            FixedAlpha(radius=-0.5)
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FixedAlpha(radius=radius)

    @pytest.mark.parametrize("mode", ["sampled", None, 32, {"mode": "fixed", "radius": 1.0}], ids=str)
    def test_rejects_an_alpha_mode_that_is_not_a_mode(self, mode):
        # Without the check "sampled" builds and test_dynamic_graph fails on mode.replications.
        with pytest.raises(ValueError, match=r"^alpha_mode must be a SampledAlpha or a FixedAlpha, got "):
            TestConfig(null_model=PA, alpha_mode=mode)

    @pytest.mark.parametrize("radius, D", [(1.7e308, 1e308), (1.7976931348623157e308, 1e300)])
    def test_rejects_a_fixed_threshold_past_float_range(self, radius, D):
        # Each value is finite alone, but radius + D/2 is inf, which to_json writes as the non-JSON Infinity.
        with pytest.raises(ValueError, match=r"^alpha_mode: the fixed radius .* plus D/2 must be finite$"):
            TestConfig(null_model=PA, D=D, alpha_mode=FixedAlpha(radius))
        TestConfig(null_model=PA, D=D, alpha_mode=SampledAlpha(2))  # a sampled radius is never that large
        cfg = TestConfig(null_model=PA, D=1e308, alpha_mode=FixedAlpha(1e308))
        assert cfg.alpha_mode.radius + cfg.D / 2 == 1.5e308

    @pytest.mark.parametrize("seed", [True, 4.9])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="seed: expected an integer"):
            TestConfig(null_model=PA, D=1.0, seed=seed)

    def test_negative_seed_is_named_where_it_enters_numpy(self):
        cfg = TestConfig(null_model=PA, D=1.0, alpha_mode=SampledAlpha(2), seed=-1)
        message = "^seed must be a nonnegative integer, got -1$"
        with pytest.raises(ValueError, match=message):
            test_dynamic_graph(sample_trajectory(PA, 50, 1), cfg)
        with pytest.raises(ValueError, match=message):
            sampling_radius_estimate(50, cfg, 2, seed=-1)
        with pytest.raises(ValueError, match=message):
            dn_estimate(PA, UNI, 50, 2, seed=-1)
        with pytest.raises(ValueError, match=message):
            sample_trajectory(PA, 50, -1)
        for draw in (stream, derive_seed):
            with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -7$"):
                draw(-7, TAG_PROBES, 0)
        assert derive_seed(0) >= 0 and stream(0).integers(2) in (0, 1)

    def test_non_integral_seed_is_named_where_it_enters_numpy(self):
        cfg = TestConfig(null_model=PA, D=1.0)
        with pytest.raises(ValueError, match="^seed: expected an integer, got True$"):
            sample_trajectory(PA, 50, True)
        with pytest.raises(ValueError, match="^seed: expected an integer, got True$"):
            sampling_radius_estimate(50, cfg, 4, True)
        for seed in (1.0, 2.5, "3", None):
            for draw in (stream, derive_seed):
                with pytest.raises(ValueError, match=f"^seed: expected an integer, got {seed!r}$"):
                    draw(seed, TAG_PROBES, 0)
        # numpy integers are seeds too, with the bits of the equal int.
        for seed in (np.int64(5), np.uint64(2**64 - 1), np.uint8(3)):
            assert derive_seed(seed, TAG_PROBES, 1) == derive_seed(int(seed), TAG_PROBES, 1)
            assert stream(seed).integers(1 << 62) == stream(int(seed)).integers(1 << 62)
        np.testing.assert_array_equal(sample_trajectory(PA, 50, np.int64(9)).choices,
                                      sample_trajectory(PA, 50, 9).choices)

    @pytest.mark.parametrize("entry, args, name, value", [
        (sample_trajectory, (PA, 50.0, 1), "n", 50.0),
        (sample_trajectory, (PA, True, 1), "n", True),
        (statistic_samples, (PA, 50, TestConfig(null_model=PA), True, 1), "replications", True),
        (statistic_samples, (PA, 50, TestConfig(null_model=PA), 2.0, 1), "replications", 2.0),
        (sampling_radius_estimate, (50, TestConfig(null_model=PA), 3.0, 1), "replications", 3.0),
        (dn_estimate, (PA, UNI, 50, True, 1), "replications", True),
        (calibrate_D, (UNI, 50, TestConfig(null_model=PA), 10.0, 1), "replications", 10.0),
        (tail_exponent_diagnostic, (PA, 1000, 2.0, 1), "replications", 2.0),
    ], ids=["trajectory-n-float", "trajectory-n-bool", "samples-bool", "samples-float", "radius-float", "dn-bool",
            "calibration-float", "tail-float"])
    def test_monte_carlo_counts_are_integers_before_any_draw(self, entry, args, name, value, monkeypatch):
        # Without the rule True runs one replication and 2.0 reaches numpy, which raises TypeError.
        def no_stream(*_):
            raise AssertionError("a stream was made before the count was checked")

        monkeypatch.setattr(np.random, "default_rng", no_stream)
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got {value!r}$"):
            entry(*args)

    @pytest.mark.parametrize("entry, args, value", [
        (dn_estimate, (PA, UNI, "50", 2, 1), "50"),
        (statistic_samples, (PA, "50", TestConfig(null_model=PA), 2, 1), "50"),
        (sampling_radius_estimate, ("50", TestConfig(null_model=PA), 2, 1), "50"),
        (calibrate_D, (UNI, "50", TestConfig(null_model=PA), 10, 1), "50"),
        (tail_exponent_diagnostic, (PA, "5000", 2, 1), "5000"),
        (sampling.probe_points, ("50", 3, 2, [np.random.default_rng(1)]), "50"),
    ], ids=["dn", "samples", "radius", "calibration", "tail", "probe-points"])
    def test_string_n_is_named_before_any_arithmetic(self, entry, args, value):
        with pytest.raises(ValueError, match=f"^n: expected an integer, got '{value}'$"):
            entry(*args)

    def test_statistic_samples_needs_a_replication(self):
        with pytest.raises(ValueError, match="^need at least one replication$"):
            statistic_samples(PA, 50, TestConfig(null_model=PA), 0, 1)

    @pytest.mark.parametrize("replications", [2.7, "3"])
    def test_rejects_non_integral_alpha_replications(self, replications):
        with pytest.raises(ValueError, match="replications: expected an integer"):
            SampledAlpha(replications)


class TestSamplingRadiusEstimate:
    CFG = TestConfig(null_model=PA, D=1.0, width_fraction=0.5, probe_fraction=0.5, seed=0)

    def test_bounds(self):
        est = sampling_radius_estimate(40, self.CFG, 16, seed=5)
        assert 0.0 <= est.mean <= self.CFG.probes_for(40)
        assert est.std >= 0.0

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            sampling_radius_estimate(40, self.CFG, 1, seed=5)

    def test_matches_exact_plan_averaged_expectation(self):
        # At n=4 with width 2 the probe range is {2, 3}; the exact
        # plan-averaged expectation is 2 * (E[S_2] + E[S_3]) / 2 = 5/16.
        exact = (
            exact_expected_statistic(PA, 4, [2], 2)
            + exact_expected_statistic(PA, 4, [3], 2)
        )  # = M(4)=2 probes, each uniform over {2, 3}
        assert exact == Fraction(5, 16)
        est = sampling_radius_estimate(4, self.CFG, 4000, seed=17)
        se = est.std / 4000**0.5
        assert abs(est.mean - float(exact) / 2 * 2) <= 3 * se

    def test_standard_error_shrinks_with_replications(self):
        # var of the mean over K independent estimates scales like 1/reps
        variances = []
        for reps in (10, 40, 160):
            means = [
                sampling_radius_estimate(30, self.CFG, reps, seed=derive_seed(99, reps, k)).mean
                for k in range(30)
            ]
            variances.append(np.var(means, ddof=1))
        slope = np.polyfit(np.log([10, 40, 160]), np.log(variances), 1)[0]
        assert -1.45 <= slope <= -0.55

    def test_threshold_radius_follows_alpha_mode(self):
        fixed = replace(self.CFG, alpha_mode=FixedAlpha(3.5))
        assert threshold_radius(fixed, 40, seed=5) == RadiusEstimate(mean=3.5, std=0.0)
        sampled = replace(self.CFG, alpha_mode=SampledAlpha(6))
        est = threshold_radius(sampled, 40, seed=5)
        assert est == sampling_radius_estimate(40, sampled, 6, seed=5)
        report = test_dynamic_graph(sample_trajectory(PA, 40, seed=2), replace(sampled, seed=9))
        radius = threshold_radius(sampled, 40, derive_seed(9, TAG_RADIUS))
        assert (report.radius_estimate, report.radius_std) == (radius.mean, radius.std)


class TestDnEstimate:
    def test_identical_models_distance_zero(self):
        for model in (PA, UNI, affine_pref_attach(1.0)):
            assert dn_estimate(model, model, 100, 10, seed=3) == 0.0

    def test_hand_value_pa_vs_uniform_n3(self):
        # deterministic: the unique 2-vertex state gives TV 1/4, halved
        assert dn_estimate(PA, UNI, 3, 100, seed=4) == 0.125

    def test_nonnegative(self):
        assert dn_estimate(UNI, PA, 50, 5, seed=6) >= 0.0

    def test_true_distance_nondecreasing_in_n(self):
        exact = [exact_dn(PA, UNI, n) for n in range(2, 7)]
        assert all(b >= a for a, b in zip(exact, exact[1:]))

    def test_monte_carlo_tracks_exact_value(self):
        values = [dn_estimate(PA, UNI, 5, 1, seed=derive_seed(12, k)) for k in range(4000)]
        se = np.std(values, ddof=1) / len(values) ** 0.5
        assert abs(np.mean(values) - float(exact_dn(PA, UNI, 5))) <= 3 * se

    def test_m_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dn_estimate(PA, uniform_attach(m=2), 10, 1, seed=0)


class TestTestDynamicGraph:
    def test_report_arithmetic_and_determinism(self):
        traj = sample_trajectory(PA, 200, seed=31)
        cfg = TestConfig(null_model=PA, D=2.0, alpha_mode=SampledAlpha(4), seed=77)
        a = test_dynamic_graph(traj, cfg)
        b = test_dynamic_graph(traj, cfg)
        assert (a.S, a.alpha, a.decision) == (b.S, b.alpha, b.decision)
        np.testing.assert_array_equal(a.probes.points, b.probes.points)
        assert a.alpha == a.radius_estimate + cfg.D / 2
        assert a.decision == int(a.S > a.alpha)
        assert a.probes.count == cfg.probes_for(200)
        assert a.probes.width == cfg.width_for(200)
        assert a.S == sum(a.per_probe_tv)

    def test_fixed_alpha_skips_estimation(self):
        traj = sample_trajectory(PA, 100, seed=8)
        cfg = TestConfig(null_model=PA, D=1.0, alpha_mode=FixedAlpha(10.0), seed=5)
        report = test_dynamic_graph(traj, cfg)
        assert report.radius_estimate == 10.0
        assert report.radius_std == 0.0
        assert report.alpha == 10.5

    def test_generous_threshold_accepts_null(self):
        traj = sample_trajectory(PA, 150, seed=9)
        cfg = TestConfig(null_model=PA, D=1000.0, alpha_mode=FixedAlpha(0.0), seed=5)
        assert test_dynamic_graph(traj, cfg).decision == 0

    def test_tiny_threshold_rejects(self):
        traj = sample_trajectory(UNI, 150, seed=9)
        cfg = TestConfig(null_model=PA, D=1e-9, alpha_mode=FixedAlpha(0.0), seed=5)
        assert test_dynamic_graph(traj, cfg).decision == 1

    def test_infeasible_config_rejected(self):
        traj = sample_trajectory(PA, 5, seed=1)
        cfg = TestConfig(null_model=PA, D=1.0, width_fraction=0.9, seed=0)
        with pytest.raises(ValueError, match="infeasible config"):
            test_dynamic_graph(traj, cfg)

    def test_json_shape(self):
        traj = sample_trajectory(PA, 100, seed=3)
        cfg = TestConfig(null_model=PA, D=1.0, alpha_mode=FixedAlpha(5.0), seed=21)
        report = test_dynamic_graph(traj, cfg)
        doc = json.loads(report.to_json())
        assert list(doc) == [
            "S", "alpha", "decision", "M", "C", "radius_mean", "radius_std", "seed", "kept_fraction",
        ]
        kept = sum(empirical_measure(traj, int(r), doc["C"]).denom for r in report.probes.points)
        assert doc["kept_fraction"] == kept / (doc["M"] * doc["C"])
        assert doc["M"] == cfg.probes_for(100)
        assert doc["C"] == cfg.width_for(100)
        assert doc["seed"] == 21
        assert doc["decision"] in (0, 1)


class TestConcentrationTrend:
    def test_spread_shrinks_relative_to_mean(self):
        # desk-scale check: the statistic's coefficient of variation drops
        # as trajectories lengthen
        tc = TestConfig(null_model=PA, D=1.0, width_fraction=0.1, probe_fraction=0.5, seed=0)
        small = statistic_samples(PA, 120, tc, 30, seed=51)
        large = statistic_samples(PA, 960, tc, 30, seed=52)
        cv_small = np.std(small, ddof=1) / np.mean(small)
        cv_large = np.std(large, ddof=1) / np.mean(large)
        assert cv_large < cv_small

    def test_statistic_samples_reproducible(self):
        tc = TestConfig(null_model=PA, D=1.0, seed=0)
        a = statistic_samples(UNI, 80, tc, 5, seed=13)
        b = statistic_samples(UNI, 80, tc, 5, seed=13)
        np.testing.assert_array_equal(a, b)


def reference_samples(gen, null, n, cfg, replications, seed):
    """statistic_samples as a loop of test_statistic calls, one per replication."""
    values = []
    for i in range(replications):
        plan = sample_probe_points(n, cfg.probes_for(n), cfg.width_for(n), stream(seed, TAG_PROBES, i))
        traj = sample_trajectory(gen, n, derive_seed(seed, TAG_TRAJECTORY, i))
        values.append(test_statistic(traj, null, plan).S)
    return np.array(values)


def assert_samples_match_reference(gen, null, n, cfg, replications, seed):
    got = statistic_samples(gen, n, replace(cfg, null_model=null), replications, seed)
    want = reference_samples(gen, null, n, cfg, replications, seed)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStatisticSamplesBlocks:
    @staticmethod
    def models(m):
        return [pref_attach(m), uniform_attach(m), affine_pref_attach(0.5, m), affine_pref_attach(2.5, m)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("case", range(8))
    def test_blocks_match_loop_bit_for_bit(self, m, case):
        draw = np.random.default_rng([m, case, 71])
        n = int(draw.integers(4, 300))
        # The widest case puts n at width + 2.
        top = (n - 2.5) / n
        width_fraction = top if case % 4 == 3 else float(draw.uniform(0.01, top))
        cfg = TestConfig(
            null_model=pref_attach(m), D=1.0, seed=0,
            width_fraction=width_fraction, probe_fraction=float(draw.uniform(0.01, 0.99)),
        )
        if case % 4 == 3:
            assert cfg.width_for(n) == n - 2
        gen, null = self.models(m)[case % 4], self.models(m)[(case // 2) % 4]
        per_block = max(1, sampling.BATCH_ELEMENTS // ((n - 1) * m))
        replications = (1, per_block, per_block + 1, 33)[case % 4]
        assert_samples_match_reference(gen, null, n, cfg, replications, int(draw.integers(1 << 30)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_uniform_data_against_pa_null(self, m):
        cfg = TestConfig(null_model=pref_attach(m), D=1.0, width_fraction=0.15, probe_fraction=0.4)
        assert_samples_match_reference(uniform_attach(m), pref_attach(m), 150, cfg, 33, seed=m)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_horizon_below_two_is_infeasible(self, n):
        cfg = TestConfig(null_model=PA, D=1.0)
        with pytest.raises(ValueError, match="window exceeds horizon"):
            statistic_samples(PA, n, cfg, 4, seed=1)
        with pytest.raises(ValueError, match="window exceeds horizon"):
            sampling_radius_estimate(n, cfg, 4, seed=1)

    @pytest.mark.parametrize("m, n", [(1, 2100), (3, 700)])
    def test_block_of_one_replication(self, m, n):
        assert sampling.BATCH_ELEMENTS // ((n - 1) * m) == 1
        cfg = TestConfig(null_model=pref_attach(m), D=1.0, seed=0)
        assert_samples_match_reference(pref_attach(m), pref_attach(m), n, cfg, 3, seed=n)


def test_package_root_exports_only_the_pipeline():
    import dyngof

    assert len(dyngof.__all__) == 22 and all(hasattr(dyngof, name) for name in dyngof.__all__)
    # The pre-kernel reference API stays in its modules.
    for name in ("DegreeState", "ProbVector", "step_distribution", "EmpiricalMeasure", "empirical_measure",
                 "tv_distance", "tv_dense", "counting_function", "tv_via_counting"):
        assert not hasattr(dyngof, name)


# The single-probe reference layer; only the tests and the benchmark tracer use it.
REFERENCE_NAMES = ("replay", "IncrementalReplay", "DegreeState", "step_distribution", "ProbVector",
                   "EmpiricalMeasure", "empirical_measure", "tv_distance", "tv_dense")


@pytest.mark.parametrize("module", ["gof", "harness", "cli"])
def test_pipeline_modules_do_not_bind_the_reference_layer(module):
    import importlib

    bound = vars(importlib.import_module(f"dyngof.{module}"))
    assert [name for name in REFERENCE_NAMES if name in bound] == []

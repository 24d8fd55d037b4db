"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use pinned seeds; tolerances are fixed here and nowhere else.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dyngof
from dyngof.gof import (
    FixedAlpha,
    SampledAlpha,
    TestConfig,
    dn_estimate,
    probe_sum,
    test_dynamic_graph,
    test_statistic,
)
from dyngof.harness import (
    EXPERIMENT_CONCENTRATION,
    EXPERIMENT_SUCCESS,
    ExperimentConfig,
    calibrate_D,
    experiment_table,
    tail_exponent_diagnostic,
)
from dyngof.models import (
    ModelSpec,
    ProbVector,
    affine_pref_attach,
    pref_attach,
    sample_choices,
    sample_trajectory,
    uniform_attach,
)
from dyngof.oracle import enumerate_trajectories, exact_expected_statistic
from dyngof.rng import derive_seed
from dyngof.sampling import (
    ProbePlan,
    counting_function,
    probe_tvs_block,
    sample_probe_points,
    tv_dense,
    tv_via_counting,
)

PA = pref_attach()
UNI = uniform_attach()


class _Criterion:
    """Prints one pass/fail line per criterion, whatever the assertions do."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {verdict}")
        return False


def test_criterion_1_exact_oracle_agreement():
    with _Criterion(1, "exact-oracle agreement"):
        fixtures = {
            3: ([2, 3], 1),
            4: ([2, 3], 2),
            5: ([2, 3, 4], 2),
        }
        reps, per_block = 10_000, 1000
        for n, (probes, width) in fixtures.items():
            listing = enumerate_trajectories(PA, n)
            assert sum(p for _, p in listing) == Fraction(1)
            assert abs(sum(float(p) for _, p in listing) - 1.0) <= 1e-10

            exact = exact_expected_statistic(PA, n, probes, width)
            plan = ProbePlan(points=np.array(probes), width=width)
            # Replication i is trajectory seed derive_seed(808100 + n, i), drawn and scored in blocks.
            values = np.empty(reps)
            for b0 in range(0, reps, per_block):
                seeds = [derive_seed(808100 + n, i) for i in range(b0, b0 + per_block)]
                points = np.broadcast_to(plan.points, (per_block, len(probes)))
                tvs = probe_tvs_block(sample_choices(PA, n, seeds), [PA], points, plan.width)[0][0]
                values[b0 : b0 + per_block] = probe_sum(tvs.reshape(per_block, len(probes)))
            for i in (0, 1, per_block, reps - 1):
                traj = sample_trajectory(PA, n, derive_seed(808100 + n, i))
                assert values[i].hex() == test_statistic(traj, PA, plan).S.hex()
            se = values.std(ddof=1) / reps**0.5
            assert abs(values.mean() - float(exact)) <= 3 * se, (
                f"n={n}: MC mean {values.mean():.5f} vs exact {float(exact):.5f} (se {se:.5f})"
            )


def test_criterion_2_tv_representation_equivalence():
    with _Criterion(2, "TV pair-counting equivalence"):
        rng = np.random.default_rng(808200)
        for _ in range(1000):
            dim = int(rng.integers(2, 101))
            x, y = rng.random(dim), rng.random(dim)
            p = ProbVector(t=dim + 1, mass=x / x.sum())
            q = ProbVector(t=dim + 1, mass=y / y.sum())
            dense = tv_dense(p, q)
            counted = tv_via_counting(counting_function(p, q))
            assert abs(counted - dense) <= 1e-12


def test_criterion_3_semimetric_identity_and_hand_value():
    with _Criterion(3, "semimetric identity"):
        for model in (PA, UNI, affine_pref_attach(1.0)):
            assert dn_estimate(model, model, 100, 10, seed=808300) == 0.0
        est = dn_estimate(PA, UNI, 3, 10_000, seed=808301)
        assert est == pytest.approx(0.125, abs=1e-12)


def test_criterion_4_concentration_trend():
    with _Criterion(4, "concentration of the statistic"):
        tc = TestConfig(
            null_model=PA, D=1.0, width_fraction=0.1, probe_fraction=0.5, seed=20260808
        )
        cfg = ExperimentConfig(
            experiment=EXPERIMENT_CONCENTRATION,
            null_model=PA,
            alt_model=None,
            n_values=(500, 1000, 2000, 4000),
            replications=50,
            test_config=tc,
        )
        table = experiment_table(cfg)
        cv = [row[table.header.index("cv")] for row in table.rows]
        assert all(b < a for a, b in zip(cv, cv[1:])), f"cv not strictly decreasing: {cv}"
        exceed_at_4000 = table.rows[-1][table.header.index("exceed_0.05")]
        assert exceed_at_4000 == 0.0


def test_criterion_5_distinguishability_with_calibrated_threshold():
    with _Criterion(5, "distinguishability"):
        cal = calibrate_D(UNI, 500, TestConfig(null_model=PA, D=1.0), 32, seed=808001)
        assert cal.D_suggested > 0
        tc = TestConfig(
            null_model=PA, D=cal.D_suggested, width_fraction=0.1, probe_fraction=0.5,
            alpha_mode=SampledAlpha(32), seed=808002,
        )
        cfg = ExperimentConfig(
            experiment=EXPERIMENT_SUCCESS,
            null_model=PA,
            alt_model=UNI,
            n_values=(500, 2000),
            replications=100,
            test_config=tc,
        )
        table = experiment_table(cfg)
        success = {row[0]: row[table.header.index("success")] for row in table.rows}
        assert success[2000] >= 0.95, f"success at n=2000: {success[2000]}"
        assert success[2000] >= success[500] - 0.05, f"success rates: {success}"


def test_criterion_6_tail_exponent():
    with _Criterion(6, "class membership tail exponent"):
        diag = tail_exponent_diagnostic(PA, 100_000, 5, seed=31337)
        assert not diag.degenerate
        assert -3.5 <= diag.fitted_gamma <= -2.5, f"gamma_hat = {diag.fitted_gamma}"


def _run_cli(*args, cwd):
    # From another directory a relative PYTHONPATH finds no dyngof: every
    # command would exit 1 ("No module named dyngof") and match its rerun.
    package_parent = str(Path(dyngof.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dyngof", *args], capture_output=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_7_cli_determinism(tmp_path):
    with _Criterion(7, "CLI determinism"):
        gen = tmp_path / "gen.traj"
        commands = [
            ["generate", "--model", "pa", "--n", "200", "--seed", "5", "--out", str(gen)],
            ["test", str(gen), "--null-model", "pa", "--D", "1.0",
             "--alpha", "fixed:10", "--seed", "6"],
            ["test", str(gen), "--null-model", "pa", "--D", "1.0",
             "--alpha", "sampled:3", "--seed", "6"],
            ["radius", "--model", "uniform", "--n", "60", "--replications", "4", "--seed", "7"],
            ["distance", "--m0", "pa", "--m1", "uniform", "--n", "40",
             "--replications", "6", "--seed", "8"],
            ["experiment", "--experiment", "concentration", "--m0", "pa",
             "--n-values", "40,60", "--replications", "10", "--alpha", "sampled:4",
             "--seed", "9", "--out", str(tmp_path / "scan.csv")],
            ["oracle", "--model", "pa", "--n", "4", "--functional", "expected-s",
             "--probes", "2,3", "--width", "2"],
        ]
        tracked_files = [gen, tmp_path / "scan.csv", tmp_path / "scan.json"]
        for args in commands:
            first = _run_cli(*args, cwd=tmp_path)
            assert first.returncode < 2, first.stderr
            snapshots = {f: f.read_bytes() for f in tracked_files if f.exists()}
            second = _run_cli(*args, cwd=tmp_path)
            assert second.returncode == first.returncode
            assert second.stdout == first.stdout, f"stdout differs for {args[0]}"
            for f, blob in snapshots.items():
                assert f.read_bytes() == blob, f"{f.name} differs after rerun of {args[0]}"


def test_criterion_8_bounds_and_threshold_arithmetic():
    with _Criterion(8, "statistic bounds and threshold arithmetic"):
        rng = np.random.default_rng(808800)
        kinds = [PA, UNI, affine_pref_attach(1.0), affine_pref_attach(2.5),
                 pref_attach(m=2), uniform_attach(m=3)]
        for trial in range(1000):
            n = int(rng.integers(30, 201))
            null_model = kinds[int(rng.integers(len(kinds)))]
            gen_kind = kinds[int(rng.integers(len(kinds)))]
            gen_model = ModelSpec(gen_kind.kind, m=null_model.m, a=gen_kind.a)
            D = float(rng.uniform(0.01, 5.0))
            if trial % 5 == 0:
                alpha_mode = SampledAlpha(2)
            else:
                alpha_mode = FixedAlpha(float(rng.uniform(0.0, 20.0)))
            cfg = TestConfig(
                null_model=null_model, D=D,
                width_fraction=float(rng.uniform(0.05, 0.35)),
                probe_fraction=float(rng.uniform(0.05, 0.95)),
                alpha_mode=alpha_mode, seed=int(rng.integers(2**32)),
            )
            traj = sample_trajectory(gen_model, n, int(rng.integers(2**32)))
            report = test_dynamic_graph(traj, cfg)
            M = cfg.probes_for(n)
            assert 0.0 <= report.S <= M
            assert all(0.0 <= tv <= 1.0 for tv in report.per_probe_tv)
            assert report.S == sum(report.per_probe_tv)
            assert report.alpha == report.radius_estimate + cfg.D / 2
            assert report.decision == int(report.S > report.alpha)


def test_probe_sampling_uniformity():
    # companion check pinned alongside the acceptance criteria: probe points
    # are uniform over the feasible range
    plan = sample_probe_points(20, 100_000, 10, np.random.default_rng(808900))
    counts = np.bincount(plan.points, minlength=12)[2:12]
    import scipy.stats

    assert scipy.stats.chisquare(counts).pvalue > 0.01

"""Tests of the benchmark's references, self-time arithmetic and workloads.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import dyngof
import refs
import run
import tracer as tr
import workloads
from dyngof import gof, oracle, rng
from dyngof.sampling import sample_probe_points

MODELS = [dyngof.pref_attach, dyngof.uniform_attach, lambda m: dyngof.affine_pref_attach(1.5, m)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", range(6))
def test_statistic_reference_matches_library_per_probe(m, case):
    draw = np.random.default_rng([m, case])
    n = int(draw.integers(8, 60))
    gen = MODELS[case % 3](m)
    null = MODELS[(case // 3 + case) % 3](m)
    traj = dyngof.sample_trajectory(gen, n, int(draw.integers(1 << 30)))
    width = int(draw.integers(1, n - 2))
    plan = sample_probe_points(n, int(draw.integers(1, 12)), width, draw)
    got = gof.test_statistic(traj, null, plan).per_probe_tv
    want = refs.statistic(traj.choices, null.kind, null.m, null.a, plan.points, plan.width)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dn_reference_matches_exact_oracle(n):
    pa, uniform = dyngof.pref_attach(), dyngof.uniform_attach()
    expected = oracle.exact_dn(pa, uniform, n)
    weighted = sum(
        float(prob) * refs.pa_uniform_dn_one(np.array(choices, dtype=np.int64).reshape(-1, 1), 1)
        for choices, prob in oracle.enumerate_trajectories(uniform, n)
    )
    assert weighted == pytest.approx(float(expected), abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dn_reference_matches_library_for_multi_edge(m):
    pa, uniform = dyngof.pref_attach(m), dyngof.uniform_attach(m)
    trajs = [dyngof.sample_trajectory(uniform, 120, rng.derive_seed(3, rng.TAG_DISTANCE, i)) for i in range(2)]
    want = np.mean([refs.pa_uniform_dn_one(t.choices, m) for t in trajs])
    assert gof.dn_estimate(pa, uniform, 120, 2, 3) == pytest.approx(want, rel=1e-12)


def test_self_time_subtracts_merged_clipped_children():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap (cover [1, 6]);
    # 3: [8, 12] runs past its parent and is clipped to [8, 10];
    # 4: [2, 3] is a grandchild under 1.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tr.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])


def test_tracer_restores_bindings_and_records_nesting():
    originals = (dyngof.gof.tv_distance, dyngof.sampling.tv_distance, dyngof.models.IncrementalReplay.advance)
    t = tr.Tracer()
    traj = dyngof.sample_trajectory(dyngof.pref_attach(), 30, 1)
    plan = sample_probe_points(30, 4, 5, np.random.default_rng(0))
    with t.installed():
        assert dyngof.gof.tv_distance is not originals[0]
        with t.operation(0):
            dyngof.gof.test_statistic(traj, dyngof.pref_attach(), plan)
    assert (dyngof.gof.tv_distance, dyngof.sampling.tv_distance,
            dyngof.models.IncrementalReplay.advance) == originals
    calls, incl, own = tr.layer_totals(t)
    assert calls["sampling.tv_distance"] == 4
    assert calls["gof.test_statistic"] == 1
    assert t.counts["gof.probes"] == 4
    assert t.counts["sampling.window_choices"] == 4 * 5
    assert own["gof.test_statistic"] < incl["gof.test_statistic"] <= incl["op"]


SMALL = {
    "gof-test": dict(n=500, D=30.0, replications=8),
    "model-distance": dict(n=200),
    "generate-io": dict(n=500),
    "calibration-small": dict(n=60, replications=10),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_workload_runs_a_short_cycle_without_errors(name, tmp_path):
    w = workloads.WORKLOADS[name](5, str(tmp_path), **SMALL[name])
    w.compute_reference()
    t = tr.Tracer()
    result = run.measure(w, 0.0, t)
    assert [o.errors for o in result.plain + result.traced] == [[]] * (2 * w.cycle)
    metrics = run.layer_metrics(t, result)
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if name == "model-distance":
        assert metrics["sampling.empirical_measure.calls"]["value"] == 0
        assert metrics["sampling.tv_distance.calls"]["value"] == 0


def test_a_wrong_output_is_counted_as_a_failure(tmp_path):
    w = workloads.ModelDistance(5, str(tmp_path), n=200)
    w.compute_reference()
    w.reference *= 1 + 1e-6
    assert run.run_op(w, 0, run.Speed()).errors

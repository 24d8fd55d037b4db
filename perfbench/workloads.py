"""The benchmark's four workloads.

Each workload is built from the benchmark seed (set-up), then runs one
operation at a time. Operations of a workload cycle through `cycle`
fixed variants, so every complete cycle does the same work. `check`
validates one operation's output against references the benchmark
computes itself (refs.py); it runs outside the timed region and returns
the list of failures.

The library is reached through the `dyngof` package attributes at call
time, so the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import dyngof
import refs
from dyngof import harness, rng

STAT_TOL = 1e-9  # per-probe and relative tolerance against the references


def child_seed(seed: int, k: int) -> int:
    """Input seed number k of benchmark seed `seed`, independent of dyngof.rng."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Workload:
    cycle = 1

    def compute_reference(self) -> None:
        """Untimed reference work done once after set-up."""


class GofTest(Workload):
    """`dyngof test`: read a trajectory file, then run the decision procedure.

    Operations alternate between a pa-generated file (expected decision 0)
    and a uniform-generated file (expected decision 1). D = 60 puts the
    threshold near the midpoint of the measured statistic gap at n = 1000
    (null statistic 322 with sd 6.3; uniform trajectories score 381 with
    sd 3.6), more than four sd from either once the 8-replication radius
    estimate's own spread is added, so a correct library does not misjudge
    either file.
    """

    name = "gof-test"
    cycle = 2

    def __init__(self, seed: int, workdir: str, n: int = 1000, D: float = 60.0, replications: int = 8):
        self.null = dyngof.pref_attach(1)
        self.cfg = dyngof.TestConfig(
            null_model=self.null, D=D,
            alpha_mode=dyngof.SampledAlpha(replications), seed=child_seed(seed, 0),
        )
        self.paths = []
        self.expected = (0, 1)
        for k, model in enumerate((self.null, dyngof.uniform_attach(1))):
            traj = dyngof.sample_trajectory(model, n, child_seed(seed, 1 + k))
            path = os.path.join(workdir, f"{model.kind}.traj")
            dyngof.write_trajectory(traj, path)
            self.paths.append(path)
        self._ref = {}

    def op(self, i: int):
        traj = dyngof.read_trajectory(self.paths[i % 2])
        return traj, dyngof.test_dynamic_graph(traj, self.cfg)

    def check(self, i: int, out) -> list[str]:
        traj, report = out
        errors = []
        plan = report.probes
        if report.decision != self.expected[i % 2]:
            errors.append(f"decision {report.decision} on {self.paths[i % 2]}")
        if not 0.0 <= report.S <= plan.count:
            errors.append(f"S={report.S} outside [0, M={plan.count}]")
        key = (i % 2, plan.width, plan.points.tobytes())
        if key not in self._ref:
            self._ref[key] = refs.statistic(
                traj.choices, self.null.kind, self.null.m, self.null.a, plan.points, plan.width
            )
        ref = self._ref[key]
        got = np.asarray(report.per_probe_tv)
        if got.shape != ref.shape or not np.all(np.abs(got - ref) <= STAT_TOL):
            errors.append("per-probe TV disagrees with the dense reference")
        if not math.isclose(report.S, float(ref.sum()), rel_tol=STAT_TOL, abs_tol=STAT_TOL):
            errors.append(f"S={report.S} but reference gives {float(ref.sum())}")
        return errors


class ModelDistance(Workload):
    """`dn_estimate(pa, uniform)`: the model distance alone, no statistic kernel."""

    name = "model-distance"

    def __init__(self, seed: int, workdir: str, n: int = 5000, replications: int = 2):
        self.m0, self.m1 = dyngof.pref_attach(1), dyngof.uniform_attach(1)
        self.n, self.replications = n, replications
        self.seed = child_seed(seed, 0)
        self.reference = None

    def compute_reference(self) -> None:
        """Closed-form dn on the trajectories dn_estimate draws."""
        per_rep = []
        for i in range(self.replications):
            traj_seed = rng.derive_seed(self.seed, rng.TAG_DISTANCE, i)
            traj = dyngof.sample_trajectory(self.m1, self.n, traj_seed)
            per_rep.append(refs.pa_uniform_dn_one(traj.choices, self.m1.m))
        self.reference = float(np.mean(per_rep))

    def op(self, i: int):
        return dyngof.dn_estimate(self.m0, self.m1, self.n, self.replications, self.seed)

    def check(self, i: int, dn: float) -> list[str]:
        if not (math.isfinite(dn) and dn > 0):
            return [f"dn={dn} is not a positive number"]
        if not math.isclose(dn, self.reference, rel_tol=STAT_TOL):
            return [f"dn={dn} but the closed form gives {self.reference}"]
        return []


class GenerateIO(Workload):
    """Sample affine-pa(a=1, m=2), write it, read it back, replay final degrees."""

    name = "generate-io"

    def __init__(self, seed: int, workdir: str, n: int = 20000):
        self.model = dyngof.affine_pref_attach(1.0, 2)
        self.n = n
        self.seed = child_seed(seed, 0)
        self.path = os.path.join(workdir, "generated.traj")

    def op(self, i: int):
        traj = dyngof.sample_trajectory(self.model, self.n, self.seed)
        dyngof.write_trajectory(traj, self.path)
        back = dyngof.read_trajectory(self.path)
        return traj, back, dyngof.replay(back, back.n)

    def check(self, i: int, out) -> list[str]:
        traj, back, state = out
        errors = []
        same = (back.n, back.m, back.model_label, back.seed) == (traj.n, traj.m, traj.model_label, traj.seed)
        if not same or not np.array_equal(back.choices, traj.choices):
            errors.append("trajectory read back differs from the one written")
        if int(state.degrees.sum()) != 2 * traj.m * traj.n:
            errors.append(f"final degrees sum to {int(state.degrees.sum())}, not 2mn")
        return errors


class CalibrationSmall(Workload):
    """`harness.run_experiment` for calibration, pa vs uniform, one small n."""

    name = "calibration-small"

    def __init__(self, seed: int, workdir: str, n: int = 500, replications: int = 10):
        pa = dyngof.pref_attach(1)
        self.cfg = harness.ExperimentConfig(
            experiment=harness.EXPERIMENT_CALIBRATION,
            null_model=pa,
            alt_model=dyngof.uniform_attach(1),
            n_values=(n,),
            replications=replications,
            test_config=dyngof.TestConfig(null_model=pa, D=1.0, seed=child_seed(seed, 0)),
            output_path=os.path.join(workdir, "calibration.csv"),
        )

    def op(self, i: int):
        return harness.run_experiment(self.cfg)

    def check(self, i: int, result) -> list[str]:
        errors = []
        if harness.read_csv(result.csv_path) != result.table:
            errors.append("CSV read back differs from the returned table")
        with open(result.manifest_path) as fh:
            if json.load(fh)["csv"] != os.path.basename(result.csv_path):
                errors.append("manifest names another CSV")
        header, rows = result.table
        for row in rows:
            values = dict(zip(header, row))
            if not values["D_suggested"] > 0:
                errors.append(f"D_suggested={values['D_suggested']} is not positive")
            if not all(math.isfinite(v) for v in row):
                errors.append(f"non-finite value in row {row}")
        return errors


WORKLOADS = {w.name: w for w in (GofTest, ModelDistance, GenerateIO, CalibrationSmall)}

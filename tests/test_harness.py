import json
import math
import re
import tracemalloc
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from dyngof import harness
from dyngof.gof import (
    FixedAlpha,
    SampledAlpha,
    TestConfig,
    dn_summands,
    probe_sum,
    replication_blocks,
    sampling_radius_estimate,
    test_dynamic_graph,
)
from dyngof.harness import (
    EXPERIMENT_CALIBRATION,
    EXPERIMENT_CONCENTRATION,
    EXPERIMENT_SUCCESS,
    EXPERIMENT_TAIL,
    MIN_TAIL_BINS,
    TAIL_BINS,
    TAIL_FIT_MIN_DEGREE,
    ExperimentConfig,
    Table,
    TailDiagnostic,
    calibrate_D,
    config_from_dict,
    config_to_dict,
    experiment_table,
    manifest_path,
    read_csv,
    run_experiment,
    tail_exponent_diagnostic,
    write_csv,
)
from dyngof.models import (
    ModelSpec,
    affine_pref_attach,
    pref_attach,
    replay,
    sample_choices,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.rng import TAG_EXPERIMENT, TAG_PROBES, TAG_TAIL, TAG_TRAJECTORY, derive_seed, stream
from dyngof.sampling import probe_points, probe_tvs_block

PA = pref_attach()
UNI = uniform_attach()


def reference_tail_diagnostic(model, n, replications, seed):
    """The tail diagnostic from one per-vertex step_distribution per replication."""
    spectra = []
    for i in range(replications):
        traj = sample_trajectory(model, n, derive_seed(seed, TAG_TAIL, i))
        spectra.append(step_distribution(model, replay(traj, n - 1)).mass)
    qmin = min(float(s.min()) for s in spectra)
    qmax = max(float(s.max()) for s in spectra)
    if qmin == qmax:
        edges = np.array([qmin * (1 - 1e-9), qmax * (1 + 1e-9)])
        return TailDiagnostic(edges, np.array([float(spectra[0].size)]), float("nan"), True, 0)
    edges = np.geomspace(qmin, qmax, TAIL_BINS + 1)
    edges[0] *= 1 - 1e-12
    edges[-1] *= 1 + 1e-12
    counts = np.mean([np.histogram(s, bins=edges)[0] for s in spectra], axis=0)
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = counts / np.diff(edges)
    sel = (centers >= model.attachment_probability(TAIL_FIT_MIN_DEGREE, n - 1)) & (counts > 0)
    assert np.count_nonzero(sel) >= MIN_TAIL_BINS
    slope = float(np.polyfit(np.log(centers[sel]), np.log(density[sel]), 1)[0])
    return TailDiagnostic(edges, counts, slope, False, int(np.count_nonzero(sel)))


def base_config(experiment, *, n_values=(60, 90), replications=4, alt=UNI,
                alpha_mode=FixedAlpha(5.0), D=2.0, seed=1000):
    return ExperimentConfig(
        experiment=experiment,
        null_model=PA,
        alt_model=alt,
        n_values=n_values,
        replications=replications,
        test_config=TestConfig(
            null_model=PA, D=D, width_fraction=0.1, probe_fraction=0.5,
            alpha_mode=alpha_mode, seed=seed,
        ),
    )


class TestExperimentConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            base_config("frobnicate")

    def test_rejects_empty_or_unsorted_n_values(self):
        with pytest.raises(ValueError):
            base_config(EXPERIMENT_SUCCESS, n_values=())
        with pytest.raises(ValueError):
            base_config(EXPERIMENT_SUCCESS, n_values=(90, 60))
        with pytest.raises(ValueError, match="replications must be at least 1"):
            base_config(EXPERIMENT_SUCCESS, replications=0)

    @pytest.mark.parametrize("field", [
        {"n_values": (60, 90.5)}, {"n_values": (60.0,)}, {"n_values": ("60",)}, {"n_values": (True,)},
        {"replications": 4.0}, {"replications": "4"}, {"replications": True},
    ], ids=str)
    def test_rejects_non_integer_sizes(self, field):
        with pytest.raises(ValueError, match="expected an integer"):
            base_config(EXPERIMENT_SUCCESS, **field)

    def test_rejects_models_of_different_m(self):
        with pytest.raises(ValueError, match="^null and alternative models disagree on edges per arrival$"):
            base_config(EXPERIMENT_SUCCESS, alt=uniform_attach(m=2))

    def test_rejects_unknown_alpha_mode(self):
        with pytest.raises(ValueError, match=r"^unknown alpha mode 'bogus' \(use 'sampled' or 'fixed'\)$"):
            config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "alpha_mode": {"mode": "bogus"}})

    def test_accepts_numpy_integers(self):
        cfg = base_config(EXPERIMENT_SUCCESS, n_values=np.array([60, 90]), replications=np.int64(4))
        assert cfg == base_config(EXPERIMENT_SUCCESS)
        assert type(cfg.replications) is int and all(type(n) is int for n in cfg.n_values)

    def test_round_trips_through_dict(self):
        cfg = base_config(EXPERIMENT_SUCCESS, alpha_mode=SampledAlpha(8))
        assert config_from_dict(ExperimentConfig, config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("field", [
        {"seed": 4.9}, {"seed": "4"}, {"seed": True},
        {"alpha_mode": {"mode": "sampled", "replications": 2.7}},
        {"alpha_mode": {"mode": "sampled", "replications": "8"}},
    ], ids=str)
    def test_test_config_rejects_non_integer_fields(self, field):
        with pytest.raises(ValueError, match="expected an integer"):
            config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "D": 1.0, **field})

    @pytest.mark.parametrize("field, name", [
        ({"D": True}, "D"), ({"D": "30"}, "D"), ({"D": None}, "D"),
        ({"width_fraction": "0.1"}, "width_fraction"), ({"probe_fraction": False}, "probe_fraction"),
        ({"alpha_mode": {"mode": "fixed", "radius": True}}, "radius"),
        ({"alpha_mode": {"mode": "fixed", "radius": "5"}}, "radius"),
        ({"null_model": {"kind": "affine-pa", "a": True}}, "a"),
        ({"null_model": {"kind": "affine-pa", "a": "0.5"}}, "a"),
    ], ids=str)
    def test_test_config_rejects_non_real_fields(self, field, name):
        with pytest.raises(ValueError, match=f"^{name}: expected a number, got "):
            config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "D": 1.0, **field})

    @pytest.mark.parametrize("field, name", [
        ({"D": 10**400}, "D"), ({"width_fraction": 10**400}, "width_fraction"),
        ({"probe_fraction": -(10**400)}, "probe_fraction"),
        ({"alpha_mode": {"mode": "fixed", "radius": 10**400}}, "radius"),
        ({"null_model": {"kind": "affine-pa", "a": 10**400}}, "a"),
    ], ids=["D", "width-fraction", "probe-fraction", "radius", "a"])
    def test_integer_past_float_range_is_named_not_echoed(self, field, name):
        with pytest.raises(ValueError) as exc:
            config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "D": 1.0, **field})
        assert str(exc.value) == f"{name}: expected a number within float range"

    def test_real_fields_are_stored_as_floats(self):
        tc = config_from_dict(TestConfig, {"null_model": {"kind": "affine-pa", "a": 1}, "D": 30,
                                           "width_fraction": 0.25, "alpha_mode": {"mode": "fixed", "radius": 5}})
        assert tc == TestConfig(null_model=affine_pref_attach(1.0), D=30.0, width_fraction=0.25,
                                alpha_mode=FixedAlpha(5.0))
        reals = (tc.null_model.a, tc.D, tc.width_fraction, tc.probe_fraction, tc.alpha_mode.radius)
        assert all(type(value) is float for value in reals)
        assert json.dumps(config_to_dict(tc)["null_model"]["a"]) == "1.0"  # a JSON integer a is written back as 1.0
        with pytest.raises(ValueError, match="^a: expected a number, got True$"):
            config_from_dict(ModelSpec, {"kind": "affine-pa", "a": True})

    @pytest.mark.parametrize("where, value, message", [
        ("label", ["x"], "label: expected a string, got ['x']"),
        ("label", 5, "label: expected a string, got 5"),
        ("kind", ["pa"], "kind: expected a string, got ['pa']"),
        ("n_values", "40", "n_values: expected a list of integers, got '40'"),
        ("n_values", 40, "n_values: expected a list of integers, got 40"),
    ], ids=["label-list", "label-int", "kind-list", "n-values-string", "n-values-int"])
    def test_non_string_model_fields_and_non_list_n_values_are_named(self, where, value, message):
        d = config_to_dict(base_config(EXPERIMENT_SUCCESS))
        (d if where == "n_values" else d["null_model"])[where] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(ExperimentConfig, d)

    def test_test_config_defaults_are_test_config_defaults(self):
        assert config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "D": 1.0}) == TestConfig(
            null_model=PA, D=1.0)

    @pytest.mark.parametrize("field", ["null_model", "alt_model", "test_config"])
    def test_sub_object_of_wrong_type_is_named(self, field):
        d = config_to_dict(base_config(EXPERIMENT_SUCCESS))
        d[field] = "pa"
        with pytest.raises(ValueError, match=f"^{field} must be a JSON object, got str$"):
            config_from_dict(ExperimentConfig, d)

    @pytest.mark.parametrize("alpha_mode", [SampledAlpha(8), FixedAlpha(5.0)], ids=str)
    def test_every_written_key_reads_back_and_no_other(self, alpha_mode):
        d = config_to_dict(base_config(EXPERIMENT_SUCCESS, alpha_mode=alpha_mode))
        assert config_from_dict(ExperimentConfig, json.loads(json.dumps(d))) == base_config(
            EXPERIMENT_SUCCESS, alpha_mode=alpha_mode
        )
        objects = {"experiment config": d, "null_model": d["null_model"], "alt_model": d["alt_model"],
                   "test_config": d["test_config"], "test_config.null_model": d["test_config"]["null_model"],
                   "test_config.alpha_mode": d["test_config"]["alpha_mode"]}
        for where, obj in objects.items():
            obj["comment"] = "x"
            with pytest.raises(ValueError, match=f"^unknown field 'comment' in {where}$"):
                config_from_dict(ExperimentConfig, d)
            del obj["comment"]

    @pytest.mark.parametrize("alpha_mode", [SampledAlpha(8), FixedAlpha(5.0)], ids=str)
    def test_parsers_called_alone_reject_unknown_keys(self, alpha_mode):
        tc = config_to_dict(base_config(EXPERIMENT_SUCCESS, alpha_mode=alpha_mode).test_config)
        assert config_from_dict(TestConfig, json.loads(json.dumps(tc))) == base_config(
            EXPERIMENT_SUCCESS, alpha_mode=alpha_mode).test_config
        assert config_from_dict(ModelSpec, config_to_dict(PA)) == PA
        for where, obj in {"test_config": tc, "test_config.null_model": tc["null_model"],
                           "test_config.alpha_mode": tc["alpha_mode"]}.items():
            obj["comment"] = "x"
            with pytest.raises(ValueError, match=f"^unknown field 'comment' in {where}$"):
                config_from_dict(TestConfig, tc)
            del obj["comment"]
        with pytest.raises(ValueError, match="^unknown field 'comment' in test_config$"):
            config_from_dict(TestConfig, {"null_model": {"kind": "pa"}, "comment": "x"})
        with pytest.raises(ValueError, match="^unknown field 'mm' in model$"):
            config_from_dict(ModelSpec, {"kind": "pa", "mm": 3})
        with pytest.raises(ValueError, match="^missing field 'kind' in model$"):
            config_from_dict(ModelSpec, {"m": 3})

    def test_fixed_alpha_round_trips(self):
        cfg = base_config(EXPERIMENT_CONCENTRATION, replications=12)
        assert config_from_dict(ExperimentConfig, config_to_dict(cfg)) == cfg

    def test_test_config_may_leave_out_the_null_model(self):
        # The run tests against the top-level null model, so the file need not repeat it.
        d = config_to_dict(base_config(EXPERIMENT_SUCCESS))
        del d["test_config"]["null_model"]
        assert config_from_dict(ExperimentConfig, d) == base_config(EXPERIMENT_SUCCESS)
        assert "null_model" not in d["test_config"]  # the caller's dict is left as it was

    def test_test_config_null_model_is_still_checked(self):
        d = config_to_dict(base_config(EXPERIMENT_SUCCESS))
        d["test_config"]["null_model"] = 3
        with pytest.raises(ValueError, match="^test_config.null_model must be a JSON object, got int$"):
            config_from_dict(ExperimentConfig, d)

    @pytest.mark.parametrize("alt, message", [
        ({}, "missing field 'kind' in alt_model"),
        (False, "alt_model must be a JSON object, got bool"),
        (0, "alt_model must be a JSON object, got int"),
        ("", "alt_model must be a JSON object, got str"),
        ([], "alt_model must be a JSON object, got list"),
    ], ids=["empty-object", "false", "zero", "empty-string", "empty-list"])
    def test_only_a_missing_or_null_alt_model_means_none(self, alt, message):
        d = config_to_dict(base_config(EXPERIMENT_CONCENTRATION, replications=12))
        d["alt_model"] = alt
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(ExperimentConfig, d)
        d["alt_model"] = None
        assert config_from_dict(ExperimentConfig, d).alt_model is None
        del d["alt_model"]
        assert config_from_dict(ExperimentConfig, d).alt_model is None

    @pytest.mark.parametrize("path, kind", [(1, "int"), (True, "bool"), (None, "NoneType"), (b"x.csv", "bytes")])
    def test_output_path_must_be_a_string(self, path, kind):
        with pytest.raises(ValueError, match=f"^output_path must be a string, got {kind}$"):
            ExperimentConfig(**{**base_config(EXPERIMENT_SUCCESS).__dict__, "output_path": path})

    @pytest.mark.parametrize("path", ["x.json", "out/run.json"])
    def test_output_path_that_is_its_own_manifest_is_rejected(self, path):
        assert manifest_path(path) == path
        with pytest.raises(ValueError, match="is its own manifest's path"):
            ExperimentConfig(**{**base_config(EXPERIMENT_SUCCESS).__dict__, "output_path": path})

    @pytest.mark.parametrize("path, manifest", [
        ("x.csv", "x.json"), ("x", "x.json"), ("out/x.tsv", "out/x.json"), ("x.json.csv", "x.json.json"),
        (".json", ".json.json"), ("x.JSON", "x.json"),
    ])
    def test_manifest_path(self, path, manifest):
        assert manifest_path(path) == manifest


# One instance of each config class with every defaulted field at its default, and for every init field a
# value other than the instance's. A field added to a class without an entry here fails the tests below.
CODEC_BASES = {
    ModelSpec: ModelSpec("affine-pa"),
    SampledAlpha: SampledAlpha(),
    FixedAlpha: FixedAlpha(1.0),
    TestConfig: TestConfig(null_model=PA),
    ExperimentConfig: ExperimentConfig(experiment=EXPERIMENT_TAIL, null_model=PA, n_values=(40,),
                                       test_config=TestConfig(null_model=PA)),
}
CODEC_VALUES = {
    ModelSpec: {"kind": "uniform", "m": 3, "a": 2.5, "label": "mine"},
    SampledAlpha: {"replications": 9},
    FixedAlpha: {"radius": 2.5},
    TestConfig: {"null_model": UNI, "D": 7.5, "width_fraction": 0.3, "probe_fraction": 0.25,
                 "alpha_mode": FixedAlpha(4.0), "seed": 11},
    ExperimentConfig: {"experiment": EXPERIMENT_CONCENTRATION, "null_model": UNI, "alt_model": UNI,
                       "n_values": (40, 80), "replications": 12,
                       "test_config": TestConfig(null_model=PA, D=3.0, seed=5), "output_path": "run.csv"},
}


def codec_round_trip(obj):
    """obj through config_to_dict, JSON text and config_from_dict; an alpha mode inside a test config."""
    if isinstance(obj, (SampledAlpha, FixedAlpha)):
        return codec_round_trip(TestConfig(null_model=PA, alpha_mode=obj)).alpha_mode
    return config_from_dict(type(obj), json.loads(json.dumps(config_to_dict(obj))))


class TestConfigCodec:
    @pytest.mark.parametrize("cls", list(CODEC_BASES), ids=lambda cls: cls.__name__)
    def test_writes_exactly_the_init_fields_in_order(self, cls):
        names = [f.name for f in fields(cls) if f.init]
        tag = ["mode"] if cls in (SampledAlpha, FixedAlpha) else []
        assert list(config_to_dict(CODEC_BASES[cls])) == tag + names
        assert sorted(CODEC_VALUES[cls]) == sorted(names)

    @pytest.mark.parametrize("cls, name", [(cls, name) for cls in CODEC_VALUES for name in CODEC_VALUES[cls]],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_every_field_survives_the_round_trip(self, cls, name):
        base = CODEC_BASES[cls]
        obj = replace(base, **{name: CODEC_VALUES[cls][name]})
        assert getattr(obj, name) != getattr(base, name)
        back = codec_round_trip(obj)
        assert back == obj and getattr(back, name) == getattr(obj, name)  # a label does not take part in ==

    @pytest.mark.parametrize("cls", [ModelSpec, TestConfig, ExperimentConfig], ids=lambda cls: cls.__name__)
    def test_a_left_out_field_takes_the_dataclass_default(self, cls):
        base = CODEC_BASES[cls]
        for f in fields(cls):
            if f.init and f.default is not MISSING:
                d = config_to_dict(base)
                del d[f.name]
                assert config_from_dict(cls, d) == base, f.name


class TestSuccessExperiment:
    def test_degenerate_config_flagged(self):
        # Success rate and calibration both need a distinct alternative, and say so when the config is built.
        message = "^degenerate config: alternative must differ from the null model$"
        for experiment in (EXPERIMENT_SUCCESS, EXPERIMENT_CALIBRATION):
            for alt in (PA, ModelSpec("pa", label="pa-again"), None):  # a label does not take part in ==
                with pytest.raises(ValueError, match=message):
                    base_config(experiment, alt=alt, replications=10)

    def test_row_shape_and_ranges(self):
        table = experiment_table(base_config(EXPERIMENT_SUCCESS))
        assert table.header == ["n", "acc_M0", "acc_M1", "success", "mean_S_M0", "mean_S_M1", "alpha"]
        assert [row[0] for row in table.rows] == [60, 90]
        for row in table.rows:
            n, acc0, acc1, success, mean0, mean1, alpha = row
            assert 0.0 <= acc0 <= 1.0 and 0.0 <= acc1 <= 1.0
            assert success == (acc0 + acc1) / 2
            assert mean0 >= 0.0 and mean1 >= 0.0
            assert alpha == 5.0 + 2.0 / 2

    def test_reproducible(self):
        a = experiment_table(base_config(EXPERIMENT_SUCCESS))
        b = experiment_table(base_config(EXPERIMENT_SUCCESS))
        assert a == b


class TestConcentrationExperiment:
    def test_needs_replications(self):
        with pytest.raises(ValueError, match="^concentration needs at least 10 replications$"):
            base_config(EXPERIMENT_CONCENTRATION, replications=5)

    def test_columns_and_nesting(self):
        table = experiment_table(base_config(EXPERIMENT_CONCENTRATION, replications=12))
        assert table.header[:4] == ["n", "mean_S", "std_S", "cv"]
        for row in table.rows:
            exceed = dict(zip(table.header[4:], row[4:]))
            assert all(0.0 <= v <= 1.0 for v in exceed.values())
            assert exceed["exceed_0.05"] <= exceed["exceed_0.02"] <= exceed["exceed_0.01"]
            assert row[1] > 0 and row[2] >= 0


class TestTailDiagnostic:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 1000"):
            tail_exponent_diagnostic(PA, 500, 2, seed=1)
        with pytest.raises(ValueError, match="need at least one replication"):
            tail_exponent_diagnostic(PA, 1000, 0, seed=1)

    def test_rejects_insufficient_tail(self):
        # With a = 1e6 attachment is nearly uniform: few bins lie at or above the degree-10 probability.
        with pytest.raises(ValueError, match="insufficient tail"):
            tail_exponent_diagnostic(affine_pref_attach(1e6), 1000, 1, 3)

    def test_uniform_spectrum_degenerate(self):
        diag = tail_exponent_diagnostic(UNI, 1500, 1, seed=2)
        assert diag.degenerate
        assert math.isnan(diag.fitted_gamma)
        assert diag.counts.tolist() == [1500 - 1]

    def test_counts_account_for_every_vertex(self):
        diag = tail_exponent_diagnostic(PA, 2000, 3, seed=3)
        assert diag.counts.sum() == pytest.approx(2000 - 1)

    @pytest.mark.parametrize("args", [
        (PA, 1500, 2, 1), (PA, 2000, 3, 3), (PA, 4000, 3, 4),
        (affine_pref_attach(0.5, m=2), 3000, 3, 2), (uniform_attach(m=2), 1200, 2, 6), (UNI, 1500, 1, 2),
    ], ids=str)
    def test_matches_per_vertex_reference(self, args):
        diag, ref = tail_exponent_diagnostic(*args), reference_tail_diagnostic(*args)
        assert diag.q_bins.tobytes() == ref.q_bins.tobytes()
        assert diag.counts.tobytes() == ref.counts.tobytes()
        assert np.float64(diag.fitted_gamma).tobytes() == np.float64(ref.fitted_gamma).tobytes()
        assert (diag.degenerate, diag.populated_tail_bins) == (ref.degenerate, ref.populated_tail_bins)

    def test_a_block_is_not_held_while_the_next_is_drawn(self):
        # Blocks hold one replication at this n, so a second one should not add a second stack to the peak.
        tail_exponent_diagnostic(PA, 1000, 1, seed=1)  # first-call allocations out of the way
        peaks = []
        for replications in (1, 2):
            tracemalloc.start()
            try:
                tail_exponent_diagnostic(PA, 200_000, replications, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], f"peaks {peaks[0] / 2**20:.2f} MB, {peaks[1] / 2**20:.2f} MB"

    def test_pa_small_scale_fit(self):
        diag = tail_exponent_diagnostic(PA, 4000, 3, seed=4)
        assert not diag.degenerate
        assert diag.populated_tail_bins >= 5
        assert -4.5 < diag.fitted_gamma < -1.5


class TestCalibrateD:
    def test_identical_models_not_separated(self):
        with pytest.raises(ValueError, match="models not separated"):
            calibrate_D(pref_attach(), 100, TestConfig(null_model=PA, D=1.0), 10, seed=5)

    def test_distinct_models_not_separated(self):
        # An alternative this close to the null scores no higher than the null's radius at this n.
        with pytest.raises(ValueError, match="^models not separated at this n$"):
            calibrate_D(affine_pref_attach(0.01), 60, TestConfig(null_model=PA), 10, seed=0)

    def test_separation_measured(self):
        cal = calibrate_D(UNI, 200, TestConfig(null_model=PA, D=1.0), 12, seed=6)
        assert cal.D_suggested > 0
        assert cal.cross_mean > cal.radius_null.mean
        assert cal.dn > 0
        # threshold built from the suggestion sits strictly between the means
        alpha = cal.radius_null.mean + cal.D_suggested / 2
        assert cal.radius_null.mean < alpha < cal.cross_mean

    def test_needs_replications(self):
        with pytest.raises(ValueError, match="at least 10"):
            calibrate_D(UNI, 100, TestConfig(null_model=PA, D=1.0), 5, seed=7)

    @pytest.mark.parametrize("n, replications, blocks", [(500, 10, [10]), (2000, 12, [2] * 6)])
    def test_shared_pass_matches_one_replication_at_a_time(self, n, replications, blocks):
        """The radii keep sampling_radius_estimate's bits; the cross mean and dn score M1's radius draws alone."""
        seed = 21
        tc = TestConfig(null_model=PA, D=1.0)
        s0, s1 = derive_seed(seed, TAG_EXPERIMENT, 0), derive_seed(seed, TAG_EXPERIMENT, 1)
        traj_seeds = [derive_seed(s1, TAG_TRAJECTORY, i) for i in range(replications)]
        assert [len(block) for block, _ in replication_blocks(UNI, n, traj_seeds)] == blocks
        probes, width = tc.probes_for(n), tc.width_for(n)
        cross, dn = [], 0.0
        for i, traj_seed in enumerate(traj_seeds):
            choices = sample_choices(UNI, n, [traj_seed])
            points = probe_points(n, probes, width, [stream(s1, TAG_PROBES, i)])
            cross.append(probe_sum(probe_tvs_block(choices, [PA], points, width)[0][0]))
            dn += dn_summands(PA, UNI, choices)[0]
        cal = calibrate_D(UNI, n, tc, replications, seed)
        assert cal.radius_null == sampling_radius_estimate(n, tc, replications, s0)
        assert cal.radius_alt == sampling_radius_estimate(n, TestConfig(null_model=UNI, D=1.0), replications, s1)
        assert cal.cross_mean == float(np.mean(cross))
        assert cal.dn == dn / replications
        assert cal.D_suggested == cal.cross_mean - cal.radius_null.mean


class TestOtherRunners:
    def test_tail_experiment(self):
        cfg = base_config(EXPERIMENT_TAIL, n_values=(1200,), replications=2)
        table = experiment_table(cfg)
        assert table.header == ["n", "fitted_gamma", "populated_tail_bins", "degenerate"]
        assert table.rows[0][3] == 0

    def test_calibration_experiment(self):
        cfg = base_config(EXPERIMENT_CALIBRATION, n_values=(150,), replications=10)
        table = experiment_table(cfg)
        assert table.rows[0][1] > 0  # D_suggested


# Each experiment's CSV header, as README documents it.
HEADERS = {
    EXPERIMENT_SUCCESS: ["n", "acc_M0", "acc_M1", "success", "mean_S_M0", "mean_S_M1", "alpha"],
    EXPERIMENT_CONCENTRATION: ["n", "mean_S", "std_S", "cv", "exceed_0.01", "exceed_0.02", "exceed_0.05"],
    EXPERIMENT_TAIL: ["n", "fitted_gamma", "populated_tail_bins", "degenerate"],
    EXPERIMENT_CALIBRATION: ["n", "D_suggested", "radius_M0_mean", "radius_M0_std",
                             "radius_M1_mean", "radius_M1_std", "cross_mean", "dn"],
}


@pytest.mark.parametrize("experiment, kwargs", [
    (EXPERIMENT_SUCCESS, {}),
    (EXPERIMENT_CONCENTRATION, {"replications": 10}),
    (EXPERIMENT_TAIL, {"n_values": (1000, 1200), "replications": 1}),
    (EXPERIMENT_CALIBRATION, {"n_values": (150,), "replications": 10}),
])
def test_experiment_table_has_the_documented_header_and_a_full_row_per_n(experiment, kwargs):
    cfg = base_config(experiment, **kwargs)
    table = experiment_table(cfg)
    assert table.header == HEADERS[experiment]
    assert [row[0] for row in table.rows] == list(cfg.n_values)
    assert all(len(row) == len(table.header) for row in table.rows)
    assert harness.EXPERIMENTS == tuple(harness._EXPERIMENTS) == tuple(HEADERS)


class TestFractionsReachTheRuns:
    """Each experiment scores with its test config's width and probe fractions, not the defaults."""

    FRACTIONS = {"width_fraction": 0.2, "probe_fraction": 0.3}

    def config(self, experiment, fractions, **kwargs):
        cfg = base_config(experiment, **kwargs)
        return ExperimentConfig(**{**cfg.__dict__, "test_config": replace(cfg.test_config, **fractions)})

    def rows(self, experiment, **kwargs):
        cfg = self.config(experiment, self.FRACTIONS, **kwargs)
        rows = experiment_table(cfg).rows
        assert rows != experiment_table(self.config(experiment, {}, **kwargs)).rows
        return cfg.test_config, rows

    def test_success_rate(self):
        tc, rows = self.rows(EXPERIMENT_SUCCESS)
        for k, (n, acc0, acc1, _, mean0, mean1, alpha) in enumerate(rows):
            for hyp, model, acc, mean in ((0, PA, acc0, mean0), (1, UNI, acc1, mean1)):
                # Replication i's trajectory seed and probe stream are those test_dynamic_graph draws from.
                trajs = [sample_trajectory(model, n, derive_seed(tc.seed, TAG_EXPERIMENT, k, 1 + hyp, i)) for i in range(4)]
                seeds = [derive_seed(tc.seed, TAG_EXPERIMENT, k, 3 + hyp, i) for i in range(4)]
                reports = [test_dynamic_graph(traj, replace(tc, seed=seed)) for traj, seed in zip(trajs, seeds)]
                assert alpha == reports[0].alpha
                assert acc == sum(report.decision == hyp for report in reports) / 4
                assert mean == float(np.mean([report.S for report in reports]))

    def test_concentration(self):
        tc, rows = self.rows(EXPERIMENT_CONCENTRATION, replications=10)
        for k, row in enumerate(rows):
            est = sampling_radius_estimate(row[0], tc, 10, derive_seed(tc.seed, TAG_EXPERIMENT, k))
            assert row[1:4] == [est.mean, est.std, est.std / est.mean]

    def test_calibration(self):
        tc, rows = self.rows(EXPERIMENT_CALIBRATION, n_values=(150,), replications=10)
        cal = calibrate_D(UNI, 150, tc, 10, derive_seed(tc.seed, TAG_EXPERIMENT, 100))
        assert rows == [[150, cal.D_suggested, cal.radius_null.mean, cal.radius_null.std,
                         cal.radius_alt.mean, cal.radius_alt.std, cal.cross_mean, cal.dn]]


class TestCsvPersistence:
    def test_round_trip(self, tmp_path):
        table = Table(
            header=["n", "value", "note"],
            rows=[[10, 0.12345678901234567, "plain"], [20, 1e-9, "x,y"], [30, 7.0, 'q"z']],
        )
        path = tmp_path / "t.csv"
        write_csv(str(path), table)
        assert read_csv(str(path)) == table

    def test_experiment_artifacts(self, tmp_path):
        cfg = base_config(
            EXPERIMENT_CONCENTRATION, n_values=(40, 60), replications=10,
            alpha_mode=SampledAlpha(4),
        )
        cfg = ExperimentConfig(**{**cfg.__dict__, "output_path": str(tmp_path / "scan.csv")})
        result = run_experiment(cfg)
        assert result.csv_path == str(tmp_path / "scan.csv")
        assert read_csv(result.csv_path) == result.table
        manifest = json.loads((tmp_path / "scan.json").read_text())
        assert manifest["seed"] == cfg.test_config.seed
        assert config_from_dict(ExperimentConfig, manifest["experiment_config"]) == cfg

    def test_explicit_output_reruns_identically(self, tmp_path):
        out = tmp_path / "out.csv"
        for experiment, n_values in ((EXPERIMENT_CONCENTRATION, (50,)), (EXPERIMENT_CALIBRATION, (150, 300))):
            cfg = base_config(experiment, n_values=n_values, replications=10)
            cfg = ExperimentConfig(**{**cfg.__dict__, "output_path": str(out)})
            run_experiment(cfg)
            first = out.read_bytes(), (tmp_path / "out.json").read_bytes()
            run_experiment(cfg)
            assert (out.read_bytes(), (tmp_path / "out.json").read_bytes()) == first, experiment

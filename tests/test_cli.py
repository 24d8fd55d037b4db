import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from dyngof import cli, harness
from dyngof.gof import FixedAlpha, TestConfig, test_dynamic_graph
from dyngof.models import KINDS, affine_pref_attach, pref_attach, sample_trajectory, uniform_attach, write_trajectory
from dyngof.sampling import empirical_measure


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dyngof", *args],
        capture_output=True, text=True, cwd=cwd,
    )


class TestGenerate:
    def test_forced_single_choice(self, tmp_path):
        out = tmp_path / "tiny.traj"
        proc = run_cli("generate", "--model", "pa", "--n", "2", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dyngof-traj v1 n=2 m=1")
        assert lines[1] == "1"
        assert "max_degree" in proc.stdout

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.traj", tmp_path / "b.traj"
        run_cli("generate", "--model", "uniform", "--n", "200", "--seed", "7", "--out", str(a))
        run_cli("generate", "--model", "uniform", "--n", "200", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_n_below_two_is_usage_error(self, tmp_path):
        proc = run_cli("generate", "--model", "pa", "--n", "1", "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_input_too_large_for_memory_is_usage_error(self, tmp_path):
        # 10**15 arrivals need 8 PB of choices, past a 47-bit address space whatever the overcommit policy.
        proc = run_cli("generate", "--model", "pa", "--n", str(10**15), "--seed", "1",
                       "--out", str(tmp_path / "x.traj"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert proc.stdout == "" and not (tmp_path / "x.traj").exists()

    def test_bad_model_name(self, tmp_path):
        proc = run_cli("generate", "--model", "zork", "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "unknown model" in proc.stderr

    def test_missing_seed_is_echoed(self, tmp_path):
        # With the result on stdout; nothing goes to stderr.
        proc = run_cli("generate", "--model", "pa", "--n", "5", "--out", str(tmp_path / "x"))
        assert proc.returncode == 0
        assert re.fullmatch(r"n=5 m=1 model=pa\(m=1\) seed=\d+ max_degree=\d+\n", proc.stdout)
        assert proc.stderr == ""


class TestTestCommand:
    @pytest.fixture
    def pa_traj(self, tmp_path):
        path = tmp_path / "pa.traj"
        run_cli("generate", "--model", "pa", "--n", "300", "--seed", "11", "--out", str(path))
        return path

    def test_null_trajectory_accepted(self, pa_traj):
        proc = run_cli("test", str(pa_traj), "--null-model", "pa", "--D", "50",
                       "--alpha", "sampled:4", "--seed", "3")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert list(doc) == ["S", "alpha", "decision", "M", "C",
                             "radius_mean", "radius_std", "seed", "kept_fraction"]
        assert doc["decision"] == 0
        assert doc["alpha"] == doc["radius_mean"] + 25.0

    def test_json_shape(self, tmp_path, capsys):
        traj = sample_trajectory(pref_attach(), 100, seed=3)
        write_trajectory(traj, str(tmp_path / "pa.traj"))
        cfg = TestConfig(null_model=pref_attach(), D=1.0, alpha_mode=FixedAlpha(5.0), seed=21)
        report = test_dynamic_graph(traj, cfg)
        code = cli.main(["test", str(tmp_path / "pa.traj"), "--D", "1", "--alpha", "fixed:5", "--seed", "21"])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "S", "alpha", "decision", "M", "C", "radius_mean", "radius_std", "seed", "kept_fraction",
        ]
        kept = sum(empirical_measure(traj, int(r), doc["C"]).denom for r in report.probes.points)
        assert doc["kept_fraction"] == kept / (doc["M"] * doc["C"])
        assert doc["M"] == cfg.probes_for(100)
        assert doc["C"] == cfg.width_for(100)
        assert doc["seed"] == 21
        assert doc["decision"] in (0, 1)
        assert code == doc["decision"] == report.decision and doc["S"] == report.S

    def test_alternative_rejected_with_tight_threshold(self, tmp_path):
        path = tmp_path / "uni.traj"
        run_cli("generate", "--model", "uniform", "--n", "300", "--seed", "12", "--out", str(path))
        proc = run_cli("test", str(path), "--null-model", "pa", "--D", "0.001",
                       "--alpha", "fixed:0", "--seed", "3")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["decision"] == 1

    def test_exit_code_matches_decision(self, pa_traj):
        proc = run_cli("test", str(pa_traj), "--null-model", "pa", "--D", "50",
                       "--alpha", "fixed:1000", "--seed", "3")
        assert proc.returncode == json.loads(proc.stdout)["decision"] == 0

    def test_truncated_file_is_error(self, tmp_path):
        path = tmp_path / "bad.traj"
        path.write_text("dyngof-traj v1 n=10 m=1 model=pa(m=1) seed=0\n1\n1\n")
        proc = run_cli("test", str(path), "--null-model", "pa", "--D", "1", "--seed", "3")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_m_header_is_error(self, tmp_path, m):
        path = tmp_path / "m.traj"
        path.write_text(f"dyngof-traj v1 n=3 m={m} model=pa(m=1) seed=0\n\n\n")
        proc = run_cli("test", str(path), "--null-model", "pa", "--D", "1", "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr == f"error: m must be a positive integer, got {m}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_n_header_is_error(self, tmp_path, n):
        path = tmp_path / "n.traj"
        path.write_text(f"dyngof-traj v1 n={n} m=1 model=pa(m=1) seed=0\n")
        proc = run_cli("test", str(path), "--null-model", "pa", "--D", "1", "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr == f"error: n must be a positive integer, got {n}\n"
        assert proc.stdout == ""

    def test_huge_m_header_is_error(self, tmp_path):
        path = tmp_path / "huge.traj"
        path.write_text(f"dyngof-traj v1 n=2 m={10**12} model=pa(m=1) seed=0\n1\n")
        proc = run_cli("test", str(path), "--null-model", "pa", "--D", "1", "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr == f"error: arrival 2: expected {10**12} targets, found 1\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("garbage", [b"\xff", b"\x00"], ids=["non-utf8", "nul"])
    def test_undecodable_or_nul_target_is_error(self, pa_traj, garbage):
        lines = pa_traj.read_bytes().split(b"\n")
        lines[5] += garbage
        pa_traj.write_bytes(b"\n".join(lines))
        proc = run_cli("test", str(pa_traj), "--null-model", "pa", "--D", "50",
                       "--alpha", "sampled:4", "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_crlf_file_reads_like_lf_file(self, pa_traj, tmp_path):
        crlf = tmp_path / "crlf.traj"
        crlf.write_bytes(pa_traj.read_bytes().replace(b"\n", b"\r\n"))
        flags = ("--null-model", "pa", "--D", "50", "--alpha", "sampled:4", "--seed", "3")
        lf_proc, crlf_proc = run_cli("test", str(pa_traj), *flags), run_cli("test", str(crlf), *flags)
        assert crlf_proc.returncode == lf_proc.returncode == 0, crlf_proc.stderr
        assert crlf_proc.stdout == lf_proc.stdout

    def test_missing_file_is_error(self):
        proc = run_cli("test", "/nonexistent.traj", "--null-model", "pa", "--D", "1", "--seed", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flags", [
        ("--D", "nan"), ("--D", "inf"), ("--D", "1", "--alpha", "fixed:nan"),
        ("--D", "1", "--alpha", "fixed:inf"), ("--D", "1e308", "--alpha", "fixed:1.7e308"),
    ])
    def test_nonfinite_threshold_is_error(self, pa_traj, flags):
        proc = run_cli("test", str(pa_traj), "--null-model", "pa", *flags, "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_bad_alpha_spec_is_error(self, pa_traj):
        proc = run_cli("test", str(pa_traj), "--null-model", "pa", "--D", "1",
                       "--alpha", "magic", "--seed", "3")
        assert proc.returncode == 2
        # A value that does not parse is named with the flag's usage, as an unknown mode is.
        commands = [("test", str(pa_traj), "--null-model", "pa", "--D", "1"),
                    ("experiment", "--experiment", "concentration", "--m0", "pa", "--n-values", "40",
                     "--out", str(pa_traj.parent / "x.csv"))]
        for spec in ("magic", "sampled:abc", "sampled:2.5", "fixed:abc"):
            for command in commands:
                proc = run_cli(*command, "--alpha", spec, "--seed", "3")
                assert proc.returncode == 2
                assert proc.stderr == f"error: bad alpha mode {spec!r} (use sampled:<reps> or fixed:<value>)\n"
                assert proc.stdout == ""


class TestRadiusAndDistance:
    def test_radius_json(self):
        proc = run_cli("radius", "--model", "pa", "--n", "60", "--replications", "4",
                       "--seed", "5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["n"] == 60 and doc["replications"] == 4
        assert 0.0 <= doc["mean"] <= doc["M"]

    def test_distance_identical_models_is_zero(self):
        proc = run_cli("distance", "--m0", "pa", "--m1", "pa", "--n", "100",
                       "--replications", "5", "--seed", "5")
        assert json.loads(proc.stdout)["dn"] == 0.0

    def test_distance_matches_hand_value(self):
        proc = run_cli("distance", "--m0", "pa", "--m1", "uniform", "--n", "3",
                       "--replications", "1000", "--seed", "5")
        assert json.loads(proc.stdout)["dn"] == 0.125


class TestOracleCommand:
    def test_traj_probs_sum_to_one(self):
        proc = run_cli("oracle", "--model", "pa", "--n", "3", "--functional", "traj-probs")
        doc = json.loads(proc.stdout)
        total = sum(Fraction(t["prob"]) for t in doc["trajectories"])
        assert total == 1
        assert doc["total_prob"] == "1"

    def test_expected_s_frozen_value(self):
        proc = run_cli("oracle", "--model", "pa", "--n", "4", "--functional", "expected-s",
                       "--probes", "2,3", "--width", "2")
        doc = json.loads(proc.stdout)
        assert doc["expected_s"] == "5/16"
        assert doc["expected_s_float"] == 0.3125

    def test_dn_frozen_value(self):
        proc = run_cli("oracle", "--model", "pa", "--m1", "uniform", "--n", "3",
                       "--functional", "dn")
        assert json.loads(proc.stdout)["dn"] == "1/8"

    def test_oversized_instance_is_error(self):
        proc = run_cli("oracle", "--model", "pa", "--n", "9", "--functional", "traj-probs")
        assert proc.returncode == 2

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_nonpositive_width_is_usage_error(self, width):
        proc = run_cli("oracle", "--model", "pa", "--n", "4", "--functional", "expected-s",
                       "--probes", "2,3", "--width", width)
        assert proc.returncode == 2
        assert proc.stderr == "error: width must be positive\n"
        assert proc.stdout == ""


class TestExperimentCommand:
    def test_concentration_via_flags(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("experiment", "--experiment", "concentration", "--m0", "pa",
                       "--n-values", "40,60", "--replications", "10",
                       "--alpha", "sampled:4", "--seed", "9", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["csv"] == str(out)
        assert out.exists() and (tmp_path / "scan.json").exists()
        assert doc["rows"] == 2
        assert list(doc) == ["csv", "manifest", "rows", "seed"] and doc["seed"] == 9

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "experiment": "concentration",
            "null_model": {"kind": "pa", "m": 1, "a": 0.0},
            "n_values": [50],
            "replications": 10,
            "test_config": {
                "null_model": {"kind": "pa", "m": 1, "a": 0.0},
                "D": 1.0, "width_fraction": 0.1, "probe_fraction": 0.5, "seed": 4,
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "conc.csv"
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(out),
                       "--replications", "12")
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "conc.json").read_text())
        assert manifest["experiment_config"]["replications"] == 12
        assert json.loads(proc.stdout)["seed"] == manifest["seed"] == 4

    def test_manifest_records_the_null_model_the_run_used(self, tmp_path):
        # The run tests against the top-level null model, whatever test_config names.
        config = {
            "experiment": "success-rate",
            "null_model": {"kind": "pa", "m": 1, "a": 0.0},
            "alt_model": {"kind": "uniform", "m": 1, "a": 0.0},
            "n_values": [40],
            "replications": 3,
            "test_config": {"D": 1.0, "alpha_mode": {"mode": "sampled", "replications": 2}, "seed": 4},
        }
        tables = {}
        for kind in ("pa", "uniform"):
            config["test_config"]["null_model"] = {"kind": kind, "m": 1, "a": 0.0}
            cfg_path = tmp_path / f"{kind}.cfg"
            cfg_path.write_text(json.dumps(config))
            out = tmp_path / f"{kind}.csv"
            proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            recorded = json.loads((tmp_path / f"{kind}.json").read_text())["experiment_config"]
            assert recorded["test_config"]["null_model"] == recorded["null_model"]
            assert recorded["null_model"]["kind"] == "pa"
            tables[kind] = out.read_bytes()
        assert tables["uniform"] == tables["pa"]

    @pytest.mark.parametrize("left_out", [("D",), ("replications",), ("D", "replications")], ids=str)
    def test_library_and_cli_fill_the_same_defaults(self, tmp_path, left_out):
        config = {
            "experiment": "concentration", "null_model": {"kind": "pa", "m": 1}, "n_values": [40],
            "replications": 10, "test_config": {"D": 7.0, "seed": 4}, "output_path": str(tmp_path / "x.csv"),
        }
        for field in left_out:
            del (config["test_config"] if field == "D" else config)[field]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        recorded = json.loads((tmp_path / "x.json").read_text())["experiment_config"]
        library = harness.config_from_dict(harness.ExperimentConfig, config)
        assert recorded == harness.config_to_dict(library)
        assert (library.replications, library.test_config.D) == (
            32 if "replications" in left_out else 10, 1.0 if "D" in left_out else 7.0
        )

    def test_label_with_whitespace_is_usage_error(self, tmp_path):
        config = {
            "experiment": "concentration",
            "null_model": {"kind": "pa", "m": 1, "a": 0.0, "label": "my pa"},
            "n_values": [40],
            "replications": 10,
            "test_config": {"D": 1.0, "seed": 4},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error:") and "whitespace" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"replications": None},
        {"null_model": {"kind": "pa", "m": "x"}},
        {"test_config": [1]},
        {"n_values": [20.7]},
        {"n_values": ["40"]},
        {"replications": 2.9},
        {"replications": "3"},
        {"test_config": {"seed": 4.9}},
        {"test_config": {"seed": 4, "alpha_mode": {"mode": "sampled", "replications": 2.7}}},
        {"null_model": {"kind": "pa", "m": 1.5}},
        {"test_config": {"seed": 4, "alpha_mode": {"mode": "weird"}}},
        {"alt_model": {"kind": "uniform", "m": 2}},
        {"null_model": {"kind": "affine-pa", "a": True}},
        {"test_config": {"seed": 4, "D": "30"}},
        {"null_model": {"kind": "pa", "label": ["x"]}},
        {"null_model": {"kind": "pa", "label": 5}},
        {"null_model": {"kind": ["pa"]}},
        {"n_values": "40"},
        {"test_config": {"seed": 4, "D": 10**400}},
    ], ids=["not-object", "replications-null", "m-string", "test-config-list", "n-values-float",
            "n-values-string", "replications-float", "replications-string", "seed-float",
            "alpha-replications-float", "m-float", "alpha-mode-unknown", "alt-m-mismatch", "a-bool", "D-string",
            "label-list", "label-int", "kind-list", "n-values-not-a-list", "D-past-float-range"])
    def test_bad_config_type_is_usage_error(self, tmp_path, config):
        if isinstance(config, dict):
            config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                      "n_values": [40], "replications": 10, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert proc.stdout == ""

    @pytest.mark.parametrize("config, key, where", [
        ({"null_model": {"m": 1}}, "'kind'", "null_model"),
        ({"test_config": {"seed": 4, "alpha_mode": {}}}, "'mode'", "test_config.alpha_mode"),
        ({"test_config": {"seed": 4, "alpha_mode": {"mode": "fixed"}}}, "'radius'", "test_config.alpha_mode"),
        ({"alt_model": {}}, "'kind'", "alt_model"),
    ], ids=["null-model-kind", "alpha-mode", "alpha-radius", "alt-model-empty"])
    def test_missing_config_field_is_named(self, tmp_path, config, key, where):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert key in proc.stderr and f" {where}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("config, message", [
        ({"replicatons": 5}, "unknown field 'replicatons' in experiment config"),
        # Named before the fault that the key's absence causes: 5 replications, or no alternative.
        ({"replicatons": 10, "replications": 5}, "unknown field 'replicatons' in experiment config"),
        ({"experiment": "success-rate", "alt_modle": {"kind": "uniform"}},
         "unknown field 'alt_modle' in experiment config"),
        ({"null_model": {"kind": "pa", "mm": 2}}, "unknown field 'mm' in null_model"),
        ({"alt_model": {"kind": "uniform", "mm": 2}}, "unknown field 'mm' in alt_model"),
        ({"test_config": {"seed": 4, "Dee": 3.0}}, "unknown field 'Dee' in test_config"),
        ({"test_config": {"seed": 4, "width_fracton": 0.2}}, "unknown field 'width_fracton' in test_config"),
        ({"test_config": {"seed": 4, "null_model": {"kind": "pa", "mm": 2}}},
         "unknown field 'mm' in test_config.null_model"),
        ({"test_config": {"seed": 4, "alpha_mode": {"mode": "sampled", "reps": 8}}},
         "unknown field 'reps' in test_config.alpha_mode"),
        ({"test_config": {"seed": 4, "alpha_mode": {"mode": "fixed", "radius": 1.0, "replications": 8}}},
         "unknown field 'replications' in test_config.alpha_mode"),
        ({"test_config": {"seed": 4, "alpha_mode": {"mode": "sampled", "radius": 1.0}}},
         "unknown field 'radius' in test_config.alpha_mode"),
    ], ids=["top", "top-with-5-replications", "success-rate-alt-model", "null-model", "alt-model", "test-config-D",
            "test-config-width", "test-config-null-model", "sampled-alpha", "fixed-alpha", "sampled-alpha-radius"])
    def test_misspelled_config_key_is_named(self, tmp_path, config, message):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("config, message", [
        ({"null_model": "pa"}, "null_model must be a JSON object, got str"),
        ({"alt_model": ["uniform"]}, "alt_model must be a JSON object, got list"),
        ({"test_config": "default"}, "test_config must be a JSON object, got str"),
        ({"test_config": {"seed": 4, "null_model": 3}},
         "test_config.null_model must be a JSON object, got int"),
        ({"test_config": {"seed": 4, "alpha_mode": "sampled"}},
         "test_config.alpha_mode must be a JSON object, got str"),
        ({"alt_model": False}, "alt_model must be a JSON object, got bool"),
        ({"alt_model": 0}, "alt_model must be a JSON object, got int"),
        ({"alt_model": ""}, "alt_model must be a JSON object, got str"),
        ({"alt_model": []}, "alt_model must be a JSON object, got list"),
    ], ids=["null-model", "alt-model", "test-config", "test-config-null-model", "alpha-mode",
            "alt-model-false", "alt-model-zero", "alt-model-empty-string", "alt-model-empty-list"])
    def test_config_field_that_is_not_an_object_is_named(self, tmp_path, config, message):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_nonpositive_m_flag_is_usage_error(self, tmp_path):
        proc = run_cli("experiment", "--experiment", "concentration", "--m0", "pa", "--m", "0",
                       "--n-values", "40", "--replications", "10", "--seed", "9",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert proc.stdout == ""
        assert not (tmp_path / "x.csv").exists()

    def test_missing_experiment_is_error(self):
        proc = run_cli("experiment", "--m0", "pa", "--n-values", "50", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr == "error: missing field 'experiment' in experiment config\n"

    @pytest.mark.parametrize("config_name, out_flag, output_path", [
        ("run.json", "run.csv", None),
        ("run.json", "./run.csv", None),
        ("run.csv", "run.csv", None),
        ("run.json", None, "run.csv"),
    ], ids=["manifest-over-config", "spelled-otherwise", "csv-over-config", "config-names-it"])
    def test_output_over_the_config_file_is_rejected(
        self, tmp_path, monkeypatch, capsys, config_name, out_flag, output_path
    ):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"D": 1.0, "seed": 4}}
        if output_path is not None:
            config["output_path"] = output_path
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / config_name
        cfg_path.write_text(json.dumps(config))
        flags = ["--out", out_flag] if out_flag else []
        for _ in range(2):  # the file is left as it was, so a rerun gives the same error
            assert cli.main(["experiment", "--config", config_name, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: the experiment would write over its config file {config_name}\n"
            assert captured.out == ""
            assert json.loads(cfg_path.read_text()) == config
        assert sorted(p.name for p in tmp_path.iterdir()) == [config_name]

    @pytest.mark.parametrize("value, kind", [(1, "int"), (True, "bool")])
    def test_non_string_output_path_is_usage_error(self, tmp_path, value, kind):
        # In a subprocess: the parent of this check opened the int as a file descriptor, fd 1.
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}, "output_path": value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: output_path must be a string, got {kind}\n"
        assert proc.stdout == ""

    def test_negative_seed_in_config_is_named(self, tmp_path, capsys):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": -3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative integer, got -3\n"
        assert captured.out == ""
        assert not out.exists()

    def test_retired_radius_scan_experiment_is_rejected(self, tmp_path):
        config = {"experiment": "radius-scan", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert (proc.returncode, proc.stderr, proc.stdout) == (2, "error: unknown experiment 'radius-scan'\n", "")
        proc = run_cli("experiment", "--experiment", "radius-scan", "--m0", "pa", "--n-values", "40",
                       "--replications", "10", "--seed", "4", "--out", str(tmp_path / "x.csv"))
        assert (proc.returncode, proc.stderr, proc.stdout) == (2, "error: unknown experiment 'radius-scan'\n", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "success-rate", "alt_model": {"kind": "uniform", "m": 2}},
         "null and alternative models disagree on edges per arrival"),
        ({"experiment": "success-rate"}, "degenerate config: alternative must differ from the null model"),
        ({"experiment": "calibration", "alt_model": {"kind": "pa"}},
         "degenerate config: alternative must differ from the null model"),
        ({"replications": 9}, "concentration needs at least 10 replications"),
    ], ids=["different-m", "success-without-alternative", "calibration-against-itself", "concentration-9"])
    def test_what_an_experiment_needs_is_checked_before_it_runs(self, tmp_path, capsys, config, message):
        config = {"experiment": "concentration", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 10, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# A valid run of each command that samples, without its --seed; {traj} is a valid trajectory file.
SAMPLING_ARGV = {
    "generate": "generate --model pa --n 50 --out {tmp}/x.traj",
    "test": "test {traj} --D 1",
    "radius": "radius --model pa --n 50 --replications 2",
    "distance": "distance --m0 pa --m1 uniform --n 50 --replications 2",
    "experiment": "experiment --experiment concentration --m0 pa --n-values 40 --replications 10 --out {tmp}/x.csv",
}


@pytest.mark.parametrize("argv", SAMPLING_ARGV.values(), ids=SAMPLING_ARGV)
def test_drawn_seed_is_reported_with_the_result_and_reproduces_it(argv, tmp_path, capsys):
    traj = tmp_path / "pa.traj"
    write_trajectory(sample_trajectory(pref_attach(), 300, 11), str(traj))
    argv = argv.format(traj=traj, tmp=tmp_path).split()
    code = cli.main(argv)
    assert code < 2
    first = capsys.readouterr()
    assert first.err == ""
    if argv[0] == "generate":
        seed = int(re.search(r" seed=(\d+) ", first.out).group(1))
    else:
        seed = json.loads(first.out)["seed"]
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.main([*argv, "--seed", str(seed)]) == code
    assert capsys.readouterr() == (first.out, "")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


@pytest.mark.parametrize("argv", SAMPLING_ARGV.values(), ids=SAMPLING_ARGV)
def test_negative_seed_flag_is_named(argv, tmp_path, capsys):
    traj = tmp_path / "pa.traj"
    write_trajectory(sample_trajectory(pref_attach(), 300, 11), str(traj))
    assert cli.main([*argv.format(traj=traj, tmp=tmp_path).split(), "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pa.traj"]


@pytest.mark.parametrize("name, model", [
    ("pa", pref_attach(2)), ("uniform", uniform_attach(2)), ("affine-pa", affine_pref_attach(1.5, 2)),
])
def test_model_flags_give_the_constructors_model(name, model):
    # --a reaches affine-pa only; --m reaches every kind.
    got = cli._model_from_flags(name, 2, 1.5)
    assert got == model and got.label == model.label
    assert name in KINDS


def test_unknown_model_lists_every_kind(capsys, tmp_path):
    message = f"error: unknown model 'zork' (choose from {', '.join(KINDS)})\n"
    assert cli.main(["radius", "--model", "zork", "--n", "50", "--seed", "1"]) == 2
    assert capsys.readouterr().err == message
    assert KINDS == ("pa", "uniform", "affine-pa")
    # ModelSpec has the one check, so a config file's kind is named alike.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "concentration", "null_model": {"kind": "zork"},
                                    "n_values": [40], "replications": 10, "test_config": {"seed": 4}}))
    assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr() == ("", message)


# Each argv passes argparse and fails in the command; {traj} is a valid trajectory file.
BAD_ARGV = [
    "generate --model pa --n 1 --seed 1 --out {out}",
    "generate --model zork --n 5 --seed 1 --out {out}",
    "generate --model pa --m 0 --n 5 --seed 1 --out {out}",
    "generate --model affine-pa --a -1 --n 5 --seed 1 --out {out}",
    "generate --model pa --n 5 --seed 1 --out {tmp}/missing/x.traj",
    "test {traj} --D 1 --alpha sampled:abc --seed 3",
    "test {traj} --D 1 --alpha sampled:1 --seed 3",
    "test {traj} --D 1 --alpha fixed: --seed 3",
    "test {traj} --D 1 --alpha fixed:-1 --seed 3",
    "test {traj} --D 0 --seed 3",
    "test {traj} --D 1 --width-fraction 0.999 --seed 3",
    "test {traj} --D 1 --probe-fraction 0 --seed 3",
    "test {traj} --D 1 --null-model zork --seed 3",
    "test {tmp}/missing.traj --D 1 --seed 3",
    "radius --n 1 --seed 1",
    "radius --n 0 --seed 1",
    "radius --n -4 --seed 1",
    "radius --n 40 --replications 1 --seed 1",
    "radius --n 40 --width-fraction 0 --seed 1",
    "radius --n 40 --m 0 --seed 1",
    "distance --m0 pa --m1 uniform --n 50 --replications 0 --seed 1",
    "distance --m0 pa --m1 uniform --n 0 --seed 1",
    "distance --m0 zork --m1 uniform --n 50 --seed 1",
    "oracle --n 4 --functional expected-s --probes x --width 2",
    "oracle --n 4 --functional expected-s --probes 9 --width 2",
    "oracle --n 4 --functional expected-s --width 2",
    "oracle --n 9 --functional traj-probs",
    "oracle --n 4 --functional dn",
    "oracle --n 4 --m 2 --functional traj-probs",
    "experiment --experiment concentration --m0 pa --n-values 1 --seed 1 --out {out}",
    "experiment --experiment radius-scan --m0 pa --n-values 40 --seed 1 --out {out}",
    "experiment --experiment success-rate --m0 pa --m1 uniform --n-values 1 --D 30 --seed 1 --out {out}",
    "experiment --experiment calibration --m0 pa --m1 uniform --n-values 1 --seed 1 --out {out}",
    "experiment --experiment tail-exponent --m0 pa --n-values 1 --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --n-values x --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --n-values 40 --alpha sampled:abc --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --n-values 40,30 --seed 1 --out {out}",
    "experiment --config {tmp}/missing.json --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --n-values 40 --replications 10 --seed 1 --out {tmp}/x.json",
    "experiment --m0 pa --n-values 40 --seed 1 --out {out}",
    "experiment --experiment concentration --n-values 40 --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --seed 1 --out {out}",
]

# The whole error line of some BAD_ARGV entries: the library's message, as a config file's input gets it.
BAD_ARGV_MESSAGES = {
    "generate --model zork --n 5 --seed 1 --out {out}": f"unknown model 'zork' (choose from {', '.join(KINDS)})",
    "oracle --n 4 --functional expected-s --probes x --width 2": "probes: expected an integer, got 'x'",
    "experiment --experiment concentration --m0 pa --n-values x --seed 1 --out {out}":
        "n_values: expected an integer, got 'x'",
    "experiment --m0 pa --n-values 40 --seed 1 --out {out}": "missing field 'experiment' in experiment config",
    "experiment --experiment concentration --n-values 40 --seed 1 --out {out}":
        "missing field 'null_model' in experiment config",
    "experiment --experiment concentration --m0 pa --seed 1 --out {out}":
        "missing field 'n_values' in experiment config",
}


def _run_bad_argv(argv, tmp_path, capsys) -> str:
    """argv's one error line; the run must exit 2, print nothing on stdout and write no file."""
    traj = tmp_path / "pa.traj"
    if not traj.exists():
        write_trajectory(sample_trajectory(pref_attach(), 300, 11), str(traj))
    assert cli.main(argv.format(traj=traj, out=tmp_path / "x.csv", tmp=tmp_path).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pa.traj"]
    return captured.err


@pytest.mark.parametrize("argv", BAD_ARGV)
def test_bad_argv_is_one_line_usage_error(argv, tmp_path, capsys):
    err = _run_bad_argv(argv, tmp_path, capsys)
    if argv in BAD_ARGV_MESSAGES:
        assert err == f"error: {BAD_ARGV_MESSAGES[argv]}\n"


@pytest.mark.parametrize("argv", [argv for argv in BAD_ARGV if " --seed " in argv])
def test_bad_argv_without_its_seed_adds_at_most_the_drawn_seed(argv, tmp_path, capsys):
    # A fault found after the seed is drawn names that seed at the end of the one error line.
    seeded = _run_bad_argv(argv, tmp_path, capsys)
    seedless = _run_bad_argv(re.sub(r" --seed \d+", "", argv), tmp_path, capsys)
    assert re.fullmatch(re.escape(seeded[:-1]) + r"( \(seed=\d+\))?\n", seedless)


class TestUsage:
    def test_unknown_flag_rejected(self):
        proc = run_cli("radius", "--model", "pa", "--n", "40", "--frobnicate", "1")
        assert proc.returncode == 2

    def test_oracle_takes_no_seed(self):
        proc = run_cli("oracle", "--n", "3", "--functional", "traj-probs", "--seed", "1")
        assert proc.returncode == 2
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_unknown_subcommand_rejected(self):
        proc = run_cli("transmogrify")
        assert proc.returncode == 2

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from dyngof import cli
from dyngof.models import pref_attach, sample_trajectory, write_trajectory


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

    def test_bad_model_name(self, tmp_path):
        proc = run_cli("generate", "--model", "zork", "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "unknown model" in proc.stderr

    def test_missing_seed_is_echoed(self, tmp_path):
        proc = run_cli("generate", "--model", "pa", "--n", "5", "--out", str(tmp_path / "x"))
        assert proc.returncode == 0
        assert "seed=" in proc.stderr


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
        ("--D", "1", "--alpha", "fixed:inf"),
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
    def test_radius_scan_via_flags(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("experiment", "--experiment", "radius-scan", "--m0", "pa",
                       "--n-values", "40,60", "--replications", "3",
                       "--alpha", "sampled:4", "--seed", "9", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["csv"] == str(out)
        assert out.exists() and (tmp_path / "scan.json").exists()
        assert doc["rows"] == 2

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

    def test_label_with_whitespace_is_usage_error(self, tmp_path):
        config = {
            "experiment": "radius-scan",
            "null_model": {"kind": "pa", "m": 1, "a": 0.0, "label": "my pa"},
            "n_values": [40],
            "replications": 3,
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
    ], ids=["not-object", "replications-null", "m-string", "test-config-list", "n-values-float",
            "n-values-string", "replications-float", "replications-string", "seed-float",
            "alpha-replications-float", "m-float", "alpha-mode-unknown", "alt-m-mismatch"])
    def test_bad_config_type_is_usage_error(self, tmp_path, config):
        if isinstance(config, dict):
            config = {"experiment": "radius-scan", "null_model": {"kind": "pa", "m": 1},
                      "n_values": [40], "replications": 3, "test_config": {"seed": 4}, **config}
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
    ], ids=["null-model-kind", "alpha-mode", "alpha-radius"])
    def test_missing_config_field_is_named(self, tmp_path, config, key, where):
        config = {"experiment": "radius-scan", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 3, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert key in proc.stderr and f" {where}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("config, message", [
        ({"null_model": "pa"}, "null_model must be a JSON object, got str"),
        ({"alt_model": ["uniform"]}, "alt_model must be a JSON object, got list"),
        ({"test_config": "default"}, "test_config must be a JSON object, got str"),
        ({"test_config": {"seed": 4, "null_model": 3}},
         "test_config.null_model must be a JSON object, got int"),
        ({"test_config": {"seed": 4, "alpha_mode": "sampled"}},
         "test_config.alpha_mode must be a JSON object, got str"),
    ], ids=["null-model", "alt-model", "test-config", "test-config-null-model", "alpha-mode"])
    def test_config_field_that_is_not_an_object_is_named(self, tmp_path, config, message):
        config = {"experiment": "radius-scan", "null_model": {"kind": "pa", "m": 1},
                  "n_values": [40], "replications": 3, "test_config": {"seed": 4}, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_nonpositive_m_flag_is_usage_error(self, tmp_path):
        proc = run_cli("experiment", "--experiment", "radius-scan", "--m0", "pa", "--m", "0",
                       "--n-values", "40", "--replications", "3", "--seed", "9",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert proc.stdout == ""
        assert not (tmp_path / "x.csv").exists()

    def test_missing_experiment_is_error(self):
        proc = run_cli("experiment", "--m0", "pa", "--n-values", "50", "--seed", "1")
        assert proc.returncode == 2


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
    "experiment --experiment radius-scan --m0 pa --n-values 1 --seed 1 --out {out}",
    "experiment --experiment concentration --m0 pa --n-values 1 --seed 1 --out {out}",
    "experiment --experiment success-rate --m0 pa --m1 uniform --n-values 1 --D 30 --seed 1 --out {out}",
    "experiment --experiment calibration --m0 pa --m1 uniform --n-values 1 --seed 1 --out {out}",
    "experiment --experiment tail-exponent --m0 pa --n-values 1 --seed 1 --out {out}",
    "experiment --experiment radius-scan --m0 pa --n-values x --seed 1 --out {out}",
    "experiment --experiment radius-scan --m0 pa --n-values 40 --alpha sampled:abc --seed 1 --out {out}",
    "experiment --experiment radius-scan --m0 pa --n-values 40,30 --seed 1 --out {out}",
    "experiment --config {tmp}/missing.json --seed 1 --out {out}",
]


@pytest.mark.parametrize("argv", BAD_ARGV)
def test_bad_argv_is_one_line_usage_error(argv, tmp_path, capsys):
    traj = tmp_path / "pa.traj"
    write_trajectory(sample_trajectory(pref_attach(), 300, 11), str(traj))
    out = tmp_path / "x.csv"
    assert cli.main(argv.format(traj=traj, out=out, tmp=tmp_path).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


class TestUsage:
    def test_unknown_flag_rejected(self):
        proc = run_cli("radius", "--model", "pa", "--n", "40", "--frobnicate", "1")
        assert proc.returncode == 2

    def test_unknown_subcommand_rejected(self):
        proc = run_cli("transmogrify")
        assert proc.returncode == 2

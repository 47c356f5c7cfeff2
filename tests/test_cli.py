"""CLI contract: schemas, exit codes, determinism, config handling."""

import csv
import io
import json
import math
import warnings

import pytest

from spinlev import cli, verify


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(["table", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"sequence", "omega_tau", "quantity",
                                  "leading_order", "exact", "ratio"}
        assert {r["sequence"] for r in rows} == {"ramsey", "hahn_echo",
                                                 "carr_purcell2"}
        # leading order is within 1% of exact at omega tau = 0.1
        for r in rows:
            if r["quantity"] in ("phi_per_gf", "delta_n_per_g2"):
                assert abs(float(r["ratio"]) - 1) < 0.01

    def test_global_flags_before_subcommand(self, capsys):
        code_a, out_a, _ = run_cli(["--format", "json", "table"], capsys)
        code_b, out_b, _ = run_cli(["table", "--format", "json"], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_output_parses(self, capsys):
        _, out, _ = run_cli(["table", "--format", "json"], capsys)
        rows = json.loads(out)
        assert len(rows) == 15


class TestTrajectory:
    def test_schema_and_separation_ordering(self, capsys):
        code, out, _ = run_cli(["trajectory"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"sequence", "branch", "t_s", "x_ho_units",
                                  "p_ho_units"}
        finals = {}
        for seq in ("ramsey", "hahn_echo", "carr_purcell2"):
            pts = {b: [r for r in rows if r["sequence"] == seq and r["branch"] == b]
                   for b in ("0", "1")}
            x0, p0 = (float(pts["0"][-1]["x_ho_units"]),
                      float(pts["0"][-1]["p_ho_units"]))
            x1, p1 = (float(pts["1"][-1]["x_ho_units"]),
                      float(pts["1"][-1]["p_ho_units"]))
            finals[seq] = math.hypot(x0 - x1, p0 - p1)
        assert finals["ramsey"] > finals["hahn_echo"] > finals["carr_purcell2"]


class TestWitnessCommand:
    def test_landmarks_sidecar(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "mode": "pulseless", "sweep": "nbar",
            "grid": {"min": 0.0, "max": 5.0, "n": 50}, "lam": 0.5,
        }))
        out = tmp_path / "w.csv"
        code, _, _ = run_cli(["witness", "--config", str(cfg), "--out", str(out)],
                             capsys)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0].keys() == {"sweep_name", "sweep_value", "w_b", "w_en",
                                  "w_ratio", "log10_w_ratio"}
        landmarks = json.loads((tmp_path / "w.csv.landmarks.json").read_text())
        assert set(landmarks) == {"tau_asymp", "tau_star", "max_nbar"}

    def test_zero_coupling_scan_is_flat(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "mode": "pulsed", "sweep": "t", "g_over_omega": 0.0,
            "grid": {"min": 1e-4, "max": 1e-2, "n": 20},
        }))
        code, out, _ = run_cli(["witness", "--config", str(cfg)], capsys)
        assert code == 0
        csv_part = out.split("{")[0]
        rows = list(csv.DictReader(io.StringIO(csv_part)))
        assert all(float(r["w_ratio"]) == 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "mode": "pulseless", "sweep": "t", "lam": 0.4,
            "grid": {"min": 0.01, "max": 3.0, "n": 80},
        }))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(["witness", "--config", str(cfg), "--out", str(out)], capsys)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSensitivityCommand:
    def test_schema(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "mass_kg": 1.5e-14, "freq_hz": 100.0, "gradient_t_per_m": 1.0,
            "q_factor": 1e6, "nbar": 1e6, "tau_s": 1e-4,
            "nu_min_hz": 1.0, "nu_max_hz": 1e3, "n_points": 4,
        }))
        code, out, _ = run_cli(["sensitivity", "--config", str(cfg)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"sweep_name", "sweep_value",
                                  "eta_n_per_sqrt_hz", "projection_var",
                                  "backaction_var", "thermal_var", "sequence",
                                  "nbar_over_q"}
        assert len(rows) == 12  # 4 frequencies x 3 sequences
        assert all(float(r["eta_n_per_sqrt_hz"]) > 0 for r in rows)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["sensitivity", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        def fake_run_checks(seed, threads):
            return {"seed": seed, "checks": [
                {"check_name": "corrupted", "expected": 0.0, "observed": 1.0,
                 "tolerance": 1e-12, "pass": False}],
                "n_checks": 1, "all_pass": False}

        monkeypatch.setattr(verify, "run_checks", fake_run_checks)
        code, _, _ = run_cli(["verify", "--out", str(tmp_path / "v.json")], capsys)
        assert code == 1

    def test_passing_suite_exits_0(self, capsys, monkeypatch):
        def fake_run_checks(seed, threads):
            return {"seed": seed, "checks": [
                {"check_name": "ok", "expected": 1.0, "observed": 1.0,
                 "tolerance": 1e-12, "pass": True}],
                "n_checks": 1, "all_pass": True}

        monkeypatch.setattr(verify, "run_checks", fake_run_checks)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True


class TestThreadsFlag:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPINLEV_THREADS", "7")
        args = cli.build_parser().parse_args(["table"])
        assert cli._threads(args) == 7

    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SPINLEV_THREADS", "7")
        args = cli.build_parser().parse_args(["table", "--threads", "3"])
        assert cli._threads(args) == 3

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("SPINLEV_THREADS", "many")
        args = cli.build_parser().parse_args(["table"])
        with pytest.raises(cli.ConfigError):
            cli._threads(args)


class TestSensitivityNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy geomspace on an infinite end
    @pytest.mark.parametrize("key,value", [("nu_max_hz", math.inf), ("nu_min_hz", math.nan)])
    def test_non_finite_frequency_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({key: value, "n_points": 4}))
        code, _, err = run_cli(["sensitivity", "--config", str(cfg)], capsys)
        assert code == 2
        assert "finite" in err


class TestThreadsWithoutEffect:
    @pytest.mark.parametrize("sub", ["sensitivity", "witness", "table", "trajectory"])
    def test_bad_env_exits_2(self, monkeypatch, capsys, sub):
        monkeypatch.setenv("SPINLEV_THREADS", "many")
        code, _, err = run_cli([sub], capsys)
        assert code == 2
        assert "SPINLEV_THREADS" in err


class TestSensitivityFrequencyRange:
    @pytest.mark.parametrize("nu_min,nu_max", [(1.0, math.inf), (math.nan, 1e3), (-math.inf, 1e3),
                                               (0.0, 1e3), (-5.0, 1e3), (1e3, 1e3), (1e3, 10.0)])
    def test_bad_range_exits_2_without_warning(self, tmp_path, capsys, nu_min, nu_max):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"nu_min_hz": nu_min, "nu_max_hz": nu_max, "n_points": 4}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(["sensitivity", "--config", str(cfg)], capsys)
        assert code == 2
        assert "nu_min_hz" in err and "nu_max_hz" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestUnknownConfigKeys:
    def test_witness_typo_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"nbar_over_Q": 1.0}))
        code, out, err = run_cli(["witness", "--config", str(cfg)], capsys)
        assert code == 2
        assert "'nbar_over_Q'" in err
        assert out == ""

    @pytest.mark.parametrize("sub,key", [
        ("sensitivity", "nu_max"), ("sensitivity", "lam"),
        ("witness", "mass_kg"), ("witness", "n_points"),
        ("table", "tau_s"), ("trajectory", "gradient_t_per_m"), ("verify", "seed"),
    ])
    def test_key_not_read_exits_2(self, tmp_path, capsys, sub, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 1.0}))
        code, out, err = run_cli([sub, "--config", str(cfg)], capsys)
        assert code == 2
        assert repr(key) in err
        assert out == ""

    def test_grid_typo_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"grid": {"min": 0.0, "max": 0.05, "nn": 10}}))
        code, _, err = run_cli(["witness", "--config", str(cfg)], capsys)
        assert code == 2
        assert "'nn'" in err

    def test_read_keys_accepted(self, tmp_path, capsys):
        # every key the README lists for a subcommand is accepted by it
        configs = {
            "sensitivity": {"mass_kg": 1.5e-14, "freq_hz": 100.0, "gradient_t_per_m": 1.0,
                            "gamma_e_rad_per_s_t": 1.76e11, "n_spins": 1, "q_factor": 1e6,
                            "temperature_k": 1e-3, "t2_s": 3e-4, "t2star_s": 1e-6,
                            "cooling_rate_hz": 1e3, "cooling_time_s": 1e-4, "larmor_hz": 0.0,
                            "tau_s": 1e-4, "sequences": ["ramsey"], "nu_min_hz": 1.0,
                            "nu_max_hz": 1e3, "n_points": 3},
            "witness": {"mode": "pulseless", "sweep": "t", "freq_hz": 100.0,
                        "grid": {"min": 1e-4, "max": 0.01, "n": 3}, "lam": 0.5,
                        "g_over_omega": 1.0, "larmor_hz": 0.0, "tau_s": 1e-3, "nbar": 0.1,
                        "nbar_over_q": 1e-3, "initial": "ground"},
            "table": {"omega_tau": 0.3},
            "trajectory": {"freq_hz": 100.0, "g_over_omega": 1.0, "tau_s": 1e-3,
                           "n_samples": 3, "sequences": ["ramsey"]},
        }
        for sub, body in configs.items():
            cfg = tmp_path / f"{sub}.json"
            cfg.write_text(json.dumps(body))
            code, _, err = run_cli([sub, "--config", str(cfg)], capsys)
            assert code == 0, (sub, err)


def run_config(tmp_path, capsys, sub, body):
    """Run sub on a config file; return (exit code, stdout, stderr, RuntimeWarnings)."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(body))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([sub, "--config", str(cfg)], capsys)
    return code, out, err, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestConfigCounts:
    @pytest.mark.parametrize("sub,body,key", [
        ("sensitivity", {"n_points": math.inf}, "n_points"),
        ("sensitivity", {"n_points": 0}, "n_points"),
        ("sensitivity", {"n_points": -3}, "n_points"),
        ("sensitivity", {"n_points": 2.5}, "n_points"),
        ("witness", {"grid": {"n": math.inf}}, "grid.n"),
        ("witness", {"grid": {"min": 0.0, "max": 0.01, "n": 2.5}}, "grid.n"),
        ("trajectory", {"n_samples": math.inf}, "n_samples"),
        ("trajectory", {"n_samples": math.nan}, "n_samples"),
        ("trajectory", {"n_samples": 2.5}, "n_samples"),
    ])
    def test_bad_count_exits_2(self, tmp_path, capsys, sub, body, key):
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert code == 2
        assert key in err and "Traceback" not in err
        assert out == "" and not caught

    def test_integral_float_count_accepted(self, tmp_path, capsys):
        code, out, err, _ = run_config(tmp_path, capsys, "trajectory",
                                       {"n_samples": 3.0, "sequences": ["ramsey"]})
        assert code == 0, err
        assert len(out.splitlines()) == 1 + 2 * 3


class TestConfigFrequencies:
    @pytest.mark.parametrize("sub", ["witness", "trajectory"])
    @pytest.mark.parametrize("freq", [0, -1.0, math.inf, math.nan])
    def test_bad_freq_exits_2(self, tmp_path, capsys, sub, freq):
        code, out, err, caught = run_config(tmp_path, capsys, sub, {"freq_hz": freq})
        assert code == 2
        assert "freq_hz" in err and "Traceback" not in err
        assert out == "" and not caught

    @pytest.mark.parametrize("key,value", [("min", -math.inf), ("min", math.nan),
                                           ("max", math.inf), ("max", math.nan)])
    def test_non_finite_grid_bound_exits_2_without_warning(self, tmp_path, capsys, key, value):
        grid = {"min": 1e-4, "max": 0.01, "n": 5}
        grid[key] = value
        code, out, err, caught = run_config(tmp_path, capsys, "witness", {"grid": grid})
        assert code == 2
        assert f"grid.{key}" in err
        assert "RuntimeWarning" not in err and not caught
        assert out == ""


class TestTableTinyOmegaTau:
    @pytest.mark.parametrize("omega_tau", [1e-300, 1e-200])
    def test_exits_2_naming_omega_tau(self, tmp_path, capsys, omega_tau):
        code, out, err, _ = run_config(tmp_path, capsys, "table", {"omega_tau": omega_tau})
        assert code == 2
        assert "omega_tau" in err and "Traceback" not in err
        assert out == ""


class TestConfigNonFinite:
    @pytest.mark.parametrize("sub,key", [
        ("witness", "lam"), ("witness", "g_over_omega"), ("witness", "larmor_hz"),
        ("witness", "nbar_over_q"), ("witness", "nbar"), ("witness", "tau_s"),
        ("trajectory", "g_over_omega"), ("trajectory", "tau_s"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, sub, key, value):
        code, out, err, caught = run_config(tmp_path, capsys, sub, {key: value})
        assert code == 2
        assert key in err and "Traceback" not in err
        assert out == "" and not caught


class TestConfigOverflow:
    """Finite config values whose natural-unit form (omega = 2 pi freq_hz,
    omega_L = 2 pi larmor_hz, g = omega g_over_omega, the phases omega tau and
    omega t) overflows to infinity."""

    @pytest.mark.parametrize("sub,body,key", [
        ("witness", {"larmor_hz": 1e308}, "larmor_hz"),
        ("witness", {"freq_hz": 1e308}, "freq_hz"),
        ("witness", {"g_over_omega": 1e308}, "g_over_omega"),
        ("witness", {"mode": "pulsed", "tau_s": 1e308}, "tau_s"),
        ("witness", {"grid": {"min": 1e-4, "max": 1e308, "n": 5}}, "grid.max"),
        ("witness", {"grid": {"min": -1e308, "max": 1e-2, "n": 5}}, "grid.min"),
        ("trajectory", {"g_over_omega": 1e308}, "g_over_omega"),
        ("trajectory", {"freq_hz": 1e308}, "freq_hz"),
        ("trajectory", {"tau_s": 1e306}, "tau_s"),
    ])
    def test_overflow_after_scaling_exits_2(self, tmp_path, capsys, sub, body, key):
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert code == 2
        assert key in err and "overflows" in err and "Traceback" not in err
        assert out == "" and not caught

    def test_nbar_sweep_grid_is_not_a_phase(self, tmp_path, capsys):
        # only time grids are scaled by omega; a large nbar grid end stays finite here
        code, _, err, _ = run_config(tmp_path, capsys, "witness",
                                     {"sweep": "nbar", "grid": {"min": 0.0, "max": 1e6, "n": 3}})
        assert code == 0, err


class TestThreadsDeprecation:
    NOTE = "note: --threads and SPINLEV_THREADS have no effect and will be removed\n"

    @pytest.mark.parametrize("flag,env", [(["--threads", "3"], None), ([], "2")])
    def test_note_on_stderr_output_unchanged(self, tmp_path, capsys, monkeypatch, flag, env):
        monkeypatch.delenv("SPINLEV_THREADS", raising=False)
        code, plain, err = run_cli(["table", "--format", "json"], capsys)
        assert code == 0 and err == ""
        if env is not None:
            monkeypatch.setenv("SPINLEV_THREADS", env)
        code, out, err = run_cli(["table", "--format", "json", *flag], capsys)
        assert code == 0
        assert out == plain
        assert err == self.NOTE

    def test_verify_report_bytes_unchanged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SPINLEV_THREADS", raising=False)
        monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_witness_identity,
                                                   verify.check_si_anchors))
        reports = []
        for flag in ([], ["--threads", "4"]):
            path = tmp_path / f"v{len(reports)}.json"
            code, out, err = run_cli(["verify", "--out", str(path), *flag], capsys)
            assert code == 0 and out == ""
            assert err == (self.NOTE if flag else "")
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

"""CLI contract: schemas, exit codes, determinism, config handling."""

import csv
import io
import json
import math

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

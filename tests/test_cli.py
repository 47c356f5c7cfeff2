"""CLI contract: schemas, exit codes, determinism, config handling."""

import contextlib
import csv
import importlib
import io
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinlev import cli, dynamics, pulses, sensing, verify, witness
from spinlev.pulses import SequenceKind
from spinlev.units import REFERENCE_DEVICE, params_from_dict, to_natural


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

    @pytest.mark.parametrize("nbar_over_q", [0.0, 1e-3])
    def test_unknown_initial_exits_2(self, tmp_path, capsys, nbar_over_q):
        code, out, err, _ = run_config(tmp_path, capsys, "witness",
                                       {"initial": "thermall", "nbar_over_q": nbar_over_q})
        assert code == 2
        assert err.startswith("error:") and "'thermall'" in err
        assert out == ""

    def test_zero_coupling_scan_is_flat(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "mode": "pulsed", "sweep": "t", "g_over_omega": 0.0,
            "grid": {"min": 1e-4, "max": 1e-2, "n": 20},
        }))
        code, out, _ = run_cli(["witness", "--config", str(cfg)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["w_ratio"]) == 0.0 for r in rows)

    def test_stdout_is_the_table_alone(self, tmp_path, capsys):
        # the landmarks go to a sidecar of --out only, so stdout stays one json document
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({"grid": {"n": 30}}))
        code, out, _ = run_cli(["witness", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 30 and rows[0].keys() == {"sweep_name", "sweep_value", "w_b", "w_en",
                                                      "w_ratio", "log10_w_ratio"}
        assert list(tmp_path.iterdir()) == [cfg]

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

    @pytest.mark.parametrize("key", ["t2_s", "t2star_s"])
    def test_coherence_time_keys_are_unknown(self, tmp_path, capsys, key):
        code, out, err, _ = run_config(tmp_path, capsys, "sensitivity", {key: 1e-6})
        assert code == 2
        assert repr(key) in err and out == ""

    def test_unknown_key_names_every_key_read(self, tmp_path, capsys):
        code, _, err, _ = run_config(tmp_path, capsys, "sensitivity", {"bogus": 1.0})
        assert code == 2
        assert err.endswith(
            "unknown config key(s) 'bogus'; this subcommand reads cooling_rate_hz, cooling_time_s, freq_hz, "
            "gamma_e_rad_per_s_t, gradient_t_per_m, larmor_hz, mass_kg, n_points, n_spins, nbar, nu_max_hz, "
            "nu_min_hz, q_factor, sequences, tau_s, temperature_k\n")

    def test_rows_do_not_depend_on_the_coupling_keys(self, tmp_path, capsys):
        # eta is evaluated at the balance coupling g*, so the gradient, gamma_e
        # and Larmor keys that set g leave every row as it is
        body = {"n_points": 7}
        plain = run_config(tmp_path, capsys, "sensitivity", body)
        moved = run_config(tmp_path, capsys, "sensitivity", {
            **body, "gradient_t_per_m": 50.0, "gamma_e_rad_per_s_t": 1e9, "larmor_hz": 1e4})
        assert plain[0] == moved[0] == 0
        assert plain[1] == moved[1]


class TestVerifyCommand:
    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        def fake_run_checks(seed):
            return {"seed": seed, "checks": [
                {"check_name": "corrupted", "expected": 0.0, "observed": 1.0,
                 "tolerance": 1e-12, "pass": False}],
                "n_checks": 1, "all_pass": False}

        monkeypatch.setattr(verify, "run_checks", fake_run_checks)
        code, _, _ = run_cli(["verify", "--out", str(tmp_path / "v.json")], capsys)
        assert code == 1

    def test_passing_suite_exits_0(self, capsys, monkeypatch):
        def fake_run_checks(seed):
            return {"seed": seed, "checks": [
                {"check_name": "ok", "expected": 1.0, "observed": 1.0,
                 "tolerance": 1e-12, "pass": True}],
                "n_checks": 1, "all_pass": True}

        monkeypatch.setattr(verify, "run_checks", fake_run_checks)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True


class TestVerifySeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**128)])
    def test_seed_outside_u64_exits_2_before_any_check(self, seed, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_checks", lambda seed: pytest.fail("a check ran"))
        code, out, err = run_cli(["verify", "--seed", seed], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--seed" in err

    def test_range_ends_accepted(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "run_checks",
                            lambda seed: seen.append(seed) or {"all_pass": True})
        for seed in (0, 2**64 - 1):
            assert run_cli(["verify", "--seed", str(seed)], capsys)[0] == 0
        assert seen == [0, 2**64 - 1]


class TestSensitivityNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy geomspace on an infinite end
    @pytest.mark.parametrize("key,value", [("nu_max_hz", math.inf), ("nu_min_hz", math.nan)])
    def test_non_finite_frequency_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({key: value, "n_points": 4}))
        code, _, err = run_cli(["sensitivity", "--config", str(cfg)], capsys)
        assert code == 2
        assert "finite" in err


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
                            "temperature_k": 1e-3,
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
        # n = 0 failed as an empty grid and n = -5 with numpy's message, neither naming the key
        ("witness", {"grid": {"n": 0}}, "grid.n"),
        ("witness", {"grid": {"n": -5}}, "grid.n"),
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


class TestConfigTimesPositive:
    """A sequence length or a witness time below 0 exits 2 naming its key;
    a negative tau_s once gave the scan at |tau_s|, or a message naming
    total_time, which no config key is called."""

    @pytest.mark.parametrize("sub,key", [("sensitivity", "tau_s"), ("witness", "tau_s"),
                                         ("trajectory", "tau_s"), ("table", "omega_tau")])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.inf])
    def test_not_positive_exits_2_naming_the_key(self, tmp_path, capsys, sub, key, value):
        body = {key: value, "mode": "pulsed", "sweep": "nbar"} if sub == "witness" else {key: value}
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert code == 2
        assert err == f"error: {key} must be finite and > 0, got {value!r}\n"
        assert out == "" and not caught

    @pytest.mark.parametrize("sub,key", [("sensitivity", "tau_s"), ("witness", "tau_s"),
                                         ("trajectory", "tau_s"), ("table", "omega_tau")])
    @pytest.mark.parametrize("value", [-1, 0])
    def test_integer_value_is_reported_as_the_float_read(self, tmp_path, capsys, sub, key, value):
        # a JSON integer goes through the units rule as the float read
        body = {key: value, "mode": "pulsed", "sweep": "nbar"} if sub == "witness" else {key: value}
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert (code, err) == (2, f"error: {key} must be finite and > 0, got {float(value)!r}\n")
        assert out == "" and not caught

    @pytest.mark.parametrize("body", [{"lam": 1}, {"nbar": 1}, {"nbar_over_q": 0},
                                      {"sweep": "nbar", "grid": {"min": 0, "max": 2, "n": 5}},
                                      {"grid": {"max": 1, "n": 5}}],
                             ids=["lam", "nbar", "nbar_over_q", "grid.min", "grid.max"])
    def test_integer_value_gives_the_float_output(self, tmp_path, capsys, body):
        # a JSON integer is read as its float: the same table as the float value
        def floats(d):
            return {k: floats(v) if isinstance(v, dict) else float(v) if type(v) is int and k != "n" else v
                    for k, v in d.items()}
        got = run_config(tmp_path, capsys, "witness", body)
        want = run_config(tmp_path, capsys, "witness", floats(body))
        assert got[0] == 0 and got[1] and got == want

    def test_negative_t_grid_exits_2(self, tmp_path, capsys):
        code, out, err, caught = run_config(tmp_path, capsys, "witness",
                                            {"grid": {"min": -0.05, "max": 0.05, "n": 5}})
        assert code == 2
        assert err == "error: t must be finite and >= 0, got -0.05\n"
        assert out == "" and not caught


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


class TestConfigWrongType:
    """Config values that are not numbers once ended in a TypeError traceback (exit 1)."""

    @pytest.mark.parametrize("sub,body,key", [
        ("witness", {"lam": None}, "lam"),
        ("witness", {"grid": {"min": [1]}}, "grid.min"),
        ("sensitivity", {"tau_s": [1]}, "tau_s"),
        ("sensitivity", {"nu_min_hz": None}, "nu_min_hz"),
        ("sensitivity", {"nu_max_hz": {"hz": 1}}, "nu_max_hz"),
        ("table", {"omega_tau": None}, "omega_tau"),
        ("trajectory", {"g_over_omega": "strong"}, "g_over_omega"),
        # JSON booleans and numeric strings are not numbers either
        ("sensitivity", {"freq_hz": "100"}, "freq_hz"),
        ("sensitivity", {"mass_kg": True}, "mass_kg"),
        ("sensitivity", {"cooling_rate_hz": False}, "cooling_rate_hz"),
        ("sensitivity", {"larmor_hz": "0"}, "larmor_hz"),
        ("sensitivity", {"q_factor": None}, "q_factor"),
        ("sensitivity", {"tau_s": "1e-4"}, "tau_s"),
        ("witness", {"lam": True}, "lam"),
        ("table", {"omega_tau": False}, "omega_tau"),
    ])
    def test_not_a_number_exits_2_naming_key(self, tmp_path, capsys, sub, body, key):
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert code == 2
        assert f"{key} must be a number" in err and "Traceback" not in err
        assert out == "" and not caught

    @pytest.mark.parametrize("sub,body,key", [
        ("sensitivity", {"n_points": True}, "n_points"),
        ("witness", {"grid": {"n": True}}, "grid.n"),
        ("trajectory", {"n_samples": "3"}, "n_samples"),
        ("sensitivity", {"n_spins": 2.5}, "n_spins"),
        ("sensitivity", {"n_spins": True}, "n_spins"),
    ])
    def test_not_an_integer_exits_2_naming_key(self, tmp_path, capsys, sub, body, key):
        code, out, err, caught = run_config(tmp_path, capsys, sub, body)
        assert code == 2
        assert f"{key} must be" in err and "Traceback" not in err
        assert out == "" and not caught

    def test_integral_n_spins_accepted(self, tmp_path, capsys):
        rows = [run_config(tmp_path, capsys, "sensitivity", {"n_spins": n, "n_points": 3})[1]
                for n in (2, 2.0)]
        assert rows[0] == rows[1] != ""

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        for sub, body, key in (("sensitivity", {"freq_hz": 10 ** 400}, "freq_hz"),
                               ("trajectory", {"tau_s": -10 ** 400}, "tau_s"),
                               ("trajectory", {"n_samples": 10 ** 400}, "n_samples")):
            code, out, err, _ = run_config(tmp_path, capsys, sub, body)
            assert code == 2 and key in err and "Traceback" not in err, (body, err)
            assert out == ""


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


# ---------------------------------------------------------------------------
# Columnar output: cli._emit against the row-dict writer it replaced.


def reference_emit(rows, header, fmt):
    """The text cli._emit wrote from a list of row dicts keyed by header names."""
    if fmt == "csv":
        lines = [",".join(header)]
        for r in rows:
            cells = []
            for h in header:
                v = r[h]
                if isinstance(v, float):
                    cells.append(cli.FLOAT_FMT % v)
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def emit_text(header, columns, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(header, columns, fmt, None)
    return buf.getvalue()


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INTS = st.integers(-10 ** 20, 10 ** 20)
TEXTS = st.one_of(st.sampled_from(["a,b", 'say "hi"', "two\nlines", "naïve", "∂x/∂t", "%s", ""]),
                  st.text(max_size=12))
RUN_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300]
NAMES = st.one_of(st.sampled_from(["100%", '"q"', "%s", "%(x)s", "w_b", "é"]), st.text(max_size=8))


class TestEmitColumns:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), header=st.lists(NAMES, min_size=1, max_size=6, unique=True),
           n=st.integers(0, 50), fmt=st.sampled_from(["csv", "json"]))
    def test_matches_row_dict_writer(self, data, header, n, fmt):
        columns, values = [], []
        for _ in header:
            kind = data.draw(st.sampled_from(["float", "float runs", "int", "str"]))
            if kind == "float":
                vals = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
                columns.append(np.array(vals, dtype=float))
            elif kind == "float runs":
                # runs of equal values, as a per-sequence term repeated on every row
                vals = []
                while len(vals) < n:
                    value = data.draw(st.one_of(st.sampled_from(RUN_FLOATS), FLOATS))
                    length = data.draw(st.sampled_from([1, 2, 5, n]))
                    vals += [value] * min(length, n - len(vals))
                columns.append(np.array(vals, dtype=float))
            else:
                cell = {"int": INTS, "str": TEXTS}[kind]
                vals = data.draw(st.lists(cell, min_size=n, max_size=n))
                columns.append(vals)
            values.append(vals)
        rows = [dict(zip(header, cells)) for cells in zip(*values)]
        assert emit_text(header, columns, fmt) == reference_emit(rows, header, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("vals", [
        [0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
        [math.nan] * 3 + [math.inf] * 3 + [-math.inf] * 2,
        [2.5] * 7,
        [1.0, 1.0, 1.0, 2.0],
    ], ids=["signed_zeros", "non_finite", "one_run", "two_runs"])
    def test_float_runs_match_cell_by_cell(self, vals, fmt):
        # a column of few runs is formatted once per run; the text is unchanged
        kernel = cli._float_bytes if fmt == "csv" else cli._repr_bytes
        (mat,), _ = cli._block_bytes([np.array(vals)], fmt)
        assert np.array_equal(mat, np.concatenate([kernel(np.array([v]))[0] for v in vals]))
        rows = [{"x": v} for v in vals]
        assert emit_text(["x"], [np.array(vals)], fmt) == reference_emit(rows, ["x"], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_without_runs_is_formatted_once_per_row(self, monkeypatch, fmt):
        # no two equal neighbours: n runs of 1, across a block boundary
        vals = np.random.default_rng(2).standard_normal(cli._BLOCK_ROWS + 300) * 1e3
        name = "_float_bytes" if fmt == "csv" else "_repr_bytes"
        seen, kernel = [], getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda c: seen.append(c.size) or kernel(c))
        text = emit_text(["x"], [vals], fmt)
        assert seen == [cli._BLOCK_ROWS, 300]
        assert text == reference_emit([{"x": v} for v in vals.tolist()], ["x"], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("col,lengths", [
        (["t"] * 1024, [1]),
        ([0] * 600 + [1] * 424, [2]),
        (["naïve", "two\nlines", "two\nlines", "a,b"] * 256, [768]),  # 768 runs of 1024 rows
    ], ids=["one_text_run", "two_int_runs", "many_runs"])
    def test_text_and_int_runs_reach_cells_once(self, monkeypatch, col, lengths, fmt):
        # str and int columns follow the float rule: one _cells value per run, not per row
        seen, cells = [], cli._cells
        monkeypatch.setattr(cli, "_cells", lambda c, f: seen.append(len(c)) or cells(c, f))
        text = emit_text(["x"], [col], fmt)
        assert seen == lengths
        assert text == reference_emit([{"x": v} for v in col], ["x"], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("col", [[1, True], [1, 1.0], [0, False, 0]],
                             ids=["int_bool", "int_float", "int_bool_int"])
    def test_equal_cells_of_other_types_raise(self, col, fmt):
        # 1 == True == 1.0: collapsing such a column by value alone wrote it as ints
        with pytest.raises(TypeError, match="float64 array or a list of str or of int"):
            emit_text(["x"], [col], fmt)

    @pytest.mark.parametrize("fmt,text", [("csv", "a,b\n"), ("json", "[]\n")])
    def test_empty_table(self, fmt, text):
        assert emit_text(["a", "b"], [np.array([]), []], fmt) == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("col", [[1.5, 2.5], ["a", 1], [True, False], [1, None]])
    def test_other_columns_raise(self, col, fmt):
        # every column a command writes is a float64 array or a list of str or of int
        with pytest.raises(TypeError, match="float64 array or a list of str or of int"):
            emit_text(["x"], [col], fmt)

    def test_ragged_columns_raise(self):
        with pytest.raises(ValueError, match="length"):
            emit_text(["a", "b"], [np.zeros(3), ["x", "y"]], "csv")
        with pytest.raises(ValueError, match="one column per header"):
            emit_text(["a", "b"], [np.zeros(3)], "json")


def csv_floats(vals):
    """The csv text _emit writes for one float column, and the text of
    FLOAT_FMT applied value by value."""
    col = np.asarray(vals, dtype=np.float64)
    expect = "".join(f"{cli.FLOAT_FMT % v}\n" for v in col.tolist())
    return emit_text(["x"], [col], "csv"), "x\n" + expect


# doubles whose 17-digit rounding is an exact tie (the 18th digit is a final 5)
TIES = [1234567890123456.25, 1234567890123456.75, 123456789012345.625, 123456789012345.875,
        12345678901234.5625]


def kernel_values(seed=20250826, n=50_000):
    """Doubles that stress the csv float kernel."""
    rng = np.random.default_rng(seed)
    powers = np.array(["1e%d" % k for k in range(-307, 309)], dtype=np.float64)
    values = [
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),  # both signs, every exponent
        rng.integers(1, 2 ** 52, n // 10, dtype=np.uint64).view(np.float64),  # subnormals
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
        np.array(TIES), -np.array(TIES),
        np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]),
    ]
    return np.concatenate(values)


class TestCsvFloatKernel:
    """cli._float_bytes: whole float columns as FLOAT_FMT text in numpy."""

    def test_every_row_equals_float_fmt(self):
        got, expect = csv_floats(kernel_values())
        assert got == expect

    def test_exact_ties_round_half_even(self):
        # the kernel cannot tell which way a tie rounds, so ties take the
        # FLOAT_FMT route
        got, _ = csv_floats(TIES + [-TIES[0]])
        assert got.split() == ["x", "1.2345678901234562e+15", "1.2345678901234568e+15",
                               "1.2345678901234562e+14", "1.2345678901234588e+14",
                               "1.2345678901234562e+13", "-1.2345678901234562e+15"]

    def test_power_table_is_correctly_rounded(self):
        pow10 = cli._csv_tables()[0]
        for e, p in zip(range(cli._E_MIN, cli._E_MAX + 1), pow10):
            exact = Fraction(10) ** (16 - e)
            ulp = Fraction(*np.spacing(p).as_integer_ratio())
            assert abs(Fraction(*p.as_integer_ratio()) - exact) <= ulp / 2, 16 - e

    def test_fallback_for_every_value_gives_the_same_text(self, monkeypatch):
        vals = kernel_values(seed=7, n=5000)
        fast, _ = csv_floats(vals)

        class CountingFormat(str):
            calls = 0

            def __mod__(self, v):
                CountingFormat.calls += 1
                return str.__mod__(self, v)

        monkeypatch.setattr(cli, "_TIE_MARGIN", 1.0)  # margin * y >= 1e16 > 1/2
        monkeypatch.setattr(cli, "FLOAT_FMT", CountingFormat(cli.FLOAT_FMT))
        assert emit_text(["x"], [vals], "csv") == fast
        assert CountingFormat.calls == vals.size


def repr_cells(vals):
    """The json cells cli._repr_bytes makes of a float column, as str, and
    how many of them its fallback formatted."""
    mat, slow = cli._repr_bytes(np.asarray(vals, dtype=np.float64))
    return [row[row != cli._PAD].tobytes().decode() for row in mat], slow


def repr_values():
    """kernel_values(), every power of two and its neighbours, and 1e16,
    1e-4 (where repr switches between positional and scientific cells) and
    the largest double with theirs."""
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.array([1e16, 1e-4, 1e15, 1e-5, 9999999999999998.0])
    top = np.finfo(np.float64).max
    return np.concatenate([kernel_values(), pow2, np.nextafter(pow2, 0), np.nextafter(pow2, np.inf),
                           -pow2, edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), -edges,
                           [top, -top, np.nextafter(top, 0)]])


class TestJsonFloatKernel:
    """cli._repr_bytes: whole float columns as json cells (float.__repr__) in numpy."""

    def test_every_cell_equals_repr(self):
        vals = repr_values()
        cells, slow = repr_cells(vals)
        assert cells == [json.dumps(v) for v in vals.tolist()]
        assert slow < vals.size

    def test_fallback_for_every_value_gives_the_same_text(self, monkeypatch, caplog):
        vals = kernel_values(seed=7, n=5000)
        fast = emit_text(["x"], [vals], "json")
        calls = []
        fallback = cli._repr_cells
        monkeypatch.setattr(cli, "_repr_cells", lambda v: calls.append(len(v)) or fallback(v))
        monkeypatch.setattr(cli, "_TIE_MARGIN", 1.0)  # margin * d >= 1e16 > 1/2
        with caplog.at_level(logging.DEBUG, logger="spinlev.cli"):
            assert emit_text(["x"], [vals], "json") == fast
        assert sum(calls) == vals.size
        assert caplog.records[-1].fallback_cells == vals.size

    def test_wider_margin_keeps_the_text(self, monkeypatch):
        # a margin 20 times the long-double bound still leaves the kernel
        # running (margin * d < 1/2); it sends more values to the fallback,
        # and each decision it still makes must be right
        vals = kernel_values(seed=3, n=20_000)
        cells, slow = repr_cells(vals)
        monkeypatch.setattr(cli, "_TIE_MARGIN", 20 * cli._TIE_MARGIN)
        wide, wide_slow = repr_cells(vals)
        assert wide == cells == [json.dumps(v) for v in vals.tolist()]
        assert slow < wide_slow < vals.size

    def test_fallback_share_of_random_bits(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        cells, slow = repr_cells(bits)
        assert cells == [json.dumps(v) for v in bits.tolist()]
        assert slow < 0.05 * bits.size

    # 46 values: a default table's three float columns and its omega_tau run;
    # 5120: a full block of a witness table's five float columns
    @pytest.mark.parametrize("n", [0, 1, 46, 127, 128, 5120])
    def test_every_column_length_takes_the_kernel(self, n):
        # a json block of fewer than 128 floats once went to float.__repr__ whole
        vals = np.random.default_rng(n).standard_normal(n) * 10.0 ** (np.arange(n) % 40 - 20)
        cells, slow = repr_cells(vals)
        assert cells == list(map(repr, vals.tolist()))
        assert slow < max(n, 1)  # the kernel formatted the rest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_row_blocks(self, n, fmt):
        rng = np.random.default_rng(n)
        header = ["w", "b", "x", "name", "k"]
        columns = [rng.standard_normal(n), np.repeat([0.25, -1e-7], [n // 2, n - n // 2]),
                   np.linspace(1e-4, 10.0, n), ["echo"] * n, list(range(n))]
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        rows = [dict(zip(header, cells)) for cells in zip(*values)]
        assert emit_text(header, columns, fmt) == reference_emit(rows, header, fmt)


def test_kernels_ignore_avx512_dispatch(child_env):
    # numpy picks its SIMD loops (log10 among them) at run time; with the
    # AVX-512 ones disabled, both float kernels must write the same bytes
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512F"):
        pytest.skip("this CPU has no AVX-512")
    vals = np.concatenate([repr_values(), np.geomspace(1e-30, 1e30, 20_001), np.linspace(-3.0, 3.0, 20_001)])
    code = ("import sys, numpy as np\n"
            "from spinlev import cli\n"
            "vals = np.frombuffer(sys.stdin.buffer.read(), np.float64)\n"
            "sys.stdout.buffer.write(cli._float_bytes(vals)[0].tobytes() + cli._repr_bytes(vals)[0].tobytes())")
    disabled = {**child_env, "NPY_DISABLE_CPU_FEATURES":
                "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"}
    outs = []
    for env in (child_env, disabled):
        proc = subprocess.run([sys.executable, "-c", code], input=vals.tobytes(), capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert len(outs[0]) == vals.size * 48
    assert outs[0] == outs[1]


class TestEmitLogging:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_debug_record_per_table(self, fmt, caplog):
        vals = np.concatenate([kernel_values(n=400), [math.nan] * 3])
        columns = [vals, ["s"] * vals.size]
        quiet = emit_text(["x", "s"], columns, fmt)
        with caplog.at_level(logging.DEBUG, logger="spinlev.cli"):
            assert emit_text(["x", "s"], columns, fmt) == quiet
        (record,) = caplog.records
        assert (record.name, record.levelno, record.format, record.rows) == ("spinlev.cli", logging.DEBUG, fmt,
                                                                            vals.size)
        # fallback_cells counts formatted run cells: the three trailing NaNs are one
        kernel = cli._float_bytes if fmt == "csv" else cli._repr_bytes
        assert record.fallback_cells == kernel(vals[:-2])[1] > 0
        assert 0 < record.seconds < 60

    def test_stdout_is_unchanged(self, capsys, caplog):
        argv = ["witness", "--format", "json"]
        code, quiet, _ = run_cli(argv, capsys)
        with caplog.at_level(logging.DEBUG, logger="spinlev.cli"):
            assert run_cli(argv, capsys) == (code, quiet, "")
        assert [(r.format, r.rows) for r in caplog.records] == [("json", 2000)]
        assert code == 0 and len(json.loads(quiet)) == 2000


SENSITIVITY_CFG = {**REFERENCE_DEVICE, "tau_s": 2e-4, "nu_min_hz": 3.0, "nu_max_hz": 3e4,
                   "n_points": 7, "larmor_hz": 2.0}
WITNESS_CFG = {"mode": "pulseless", "sweep": "t", "freq_hz": 50.0, "lam": 0.7, "nbar": 0.4,
               "nbar_over_q": 3e-3, "initial": "thermal", "larmor_hz": 3.0,
               "grid": {"min": 1e-4, "max": 0.1, "n": 120}}
TRAJECTORY_CFG = {"freq_hz": 80.0, "g_over_omega": 0.7, "tau_s": 0.004, "n_samples": 9,
                  "sequences": ["carr_purcell2", "ramsey"]}
TABLE_CFG = {"omega_tau": 0.7}
KINDS = ["ramsey", "hahn_echo", "carr_purcell2"]


def reference_rows(sub):
    """(rows, header, landmarks) of one subcommand at its config above, built
    row by row from the public API as the row-dict CLI built them."""
    if sub == "sensitivity":
        cfg = SENSITIVITY_CFG
        params = params_from_dict(cfg)
        nbar_over_q = to_natural(params).nbar / params.quality_factor
        nus = [float(nu) for nu in np.geomspace(cfg["nu_min_hz"], cfg["nu_max_hz"], cfg["n_points"])]
        rows = []
        for kind in KINDS:
            seq = pulses.make_sequence(kind, cfg["tau_s"])
            spec = sensing.sensitivity_spectrum(params, seq, [2 * math.pi * nu for nu in nus])
            rows += [{"sweep_name": "nu_hz", "sweep_value": nu, "eta_n_per_sqrt_hz": eta,
                      "projection_var": spec.projection_var,
                      "backaction_var": spec.backaction_var,
                      "thermal_var": spec.thermal_var, "sequence": kind,
                      "nbar_over_q": nbar_over_q} for nu, eta in zip(nus, spec.eta.tolist())]
        header = ["sweep_name", "sweep_value", "eta_n_per_sqrt_hz", "projection_var",
                  "backaction_var", "thermal_var", "sequence", "nbar_over_q"]
        return rows, header, None
    if sub == "witness":
        cfg = WITNESS_CFG
        omega = 2 * math.pi * cfg["freq_hz"]
        grid = list(np.linspace(cfg["grid"]["min"], cfg["grid"]["max"], cfg["grid"]["n"]))
        scan = witness.violation_scan(
            cfg["mode"], cfg["sweep"], grid, lam=cfg["lam"], g=omega, omega=omega,
            omega_l=2 * math.pi * cfg["larmor_hz"], tau=0.1 * math.pi / omega, nbar=cfg["nbar"],
            nbar_over_q=cfg["nbar_over_q"], initial=cfg["initial"])
        header = ["sweep_name", "sweep_value", "w_b", "w_en", "w_ratio", "log10_w_ratio"]
        rows = [{"sweep_name": scan.sweep_name, **dict(zip(header[1:], values))}
                for values in zip(*(getattr(scan, key).tolist() for key in header[1:]))]
        landmarks = {"tau_asymp": scan.tau_asymp, "tau_star": scan.tau_star,
                     "max_nbar": scan.max_nbar}
        return rows, header, landmarks
    if sub == "trajectory":
        cfg = TRAJECTORY_CFG
        omega = 2 * math.pi * cfg["freq_hz"]
        rows = []
        for kind in cfg["sequences"]:
            seq = pulses.make_sequence(kind, cfg["tau_s"])
            for branch in (0, 1):
                for t, x, p in dynamics.trajectory(seq, cfg["g_over_omega"] * omega, omega, branch,
                                                   cfg["n_samples"]):
                    rows.append({"sequence": kind, "branch": branch, "t_s": t,
                                 "x_ho_units": x, "p_ho_units": p})
        return rows, ["sequence", "branch", "t_s", "x_ho_units", "p_ho_units"], None
    wt = TABLE_CFG["omega_tau"]
    rows = []
    for kind in map(SequenceKind, KINDS):
        seq = pulses.make_sequence(kind, wt)
        lead = pulses.leading_order_row(kind, 1.0, wt)
        for quantity, leading, exact in (
            ("phi_per_gf", lead.phi_per_gf, abs(pulses.dc_phase(seq, 1.0, 1.0))),
            ("delta_n_per_g2", lead.delta_n_per_g2, pulses.residual_displacement(seq, 1.0, 1.0)[1]),
            ("zeta_per_g2", abs(pulses.zeta_closed_form(kind, 1.0, 1.0, wt)),
             abs(pulses.squeezing_parameter(seq, 1.0, 1.0))),
            ("force_sql_scale", lead.force_sql_scale, sensing.force_sql(kind, 1.0, wt, 1.0)),
            ("g_star_scale", lead.g_star_scale, sensing.optimal_coupling(kind, 1.0, wt, 0.25)),
        ):
            rows.append({"sequence": kind.value, "omega_tau": wt, "quantity": quantity,
                         "leading_order": float(leading), "exact": float(exact),
                         "ratio": float(exact / leading) if leading else float("nan")})
    return rows, ["sequence", "omega_tau", "quantity", "leading_order", "exact", "ratio"], None


class TestColumnarOutputBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sub,cfg", [("sensitivity", SENSITIVITY_CFG), ("witness", WITNESS_CFG),
                                         ("trajectory", TRAJECTORY_CFG), ("table", TABLE_CFG)])
    def test_file_equals_row_dict_output(self, tmp_path, capsys, sub, cfg, fmt):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out.{fmt}"
        code, _, err = run_cli([sub, "--config", str(path), "--out", str(out), "--format", fmt],
                               capsys)
        assert code == 0, err
        rows, header, landmarks = reference_rows(sub)
        assert out.read_bytes() == reference_emit(rows, header, fmt).encode()
        if landmarks is not None:
            sidecar = tmp_path / f"out.{fmt}.landmarks.json"
            assert sidecar.read_text() == json.dumps(landmarks, indent=2, sort_keys=True) + "\n"


class TestWitnessOverflow:
    """Finite inputs whose witness kernels overflow to NaN or inf."""

    @pytest.mark.parametrize("body,named", [
        ({"lam": 1e200}, "lam = 1e+200"),
        ({"nbar": 1e308}, "nbar = 1e+308"),
        ({"nbar_over_q": 1e308}, "nbar_over_q = 1e+308"),
        # violation_scan names the natural-unit coupling g = g_over_omega * 2 pi freq_hz
        ({"mode": "pulsed", "g_over_omega": 1e300}, "g = 6.283185307179587e+302"),
        # with a bath the coefficients overflow too; they once raised "a_y must be finite"
        ({"lam": 1e200, "nbar_over_q": 1e-3}, "lam = 1e+200"),
        ({"nbar": 1e308, "nbar_over_q": 1e-3, "initial": "thermal"}, "nbar = 1e+308"),
        ({"mode": "pulsed", "g_over_omega": 1e300, "nbar_over_q": 1e-3}, "g = 6.283185307179587e+302"),
    ], ids=["lam", "nbar", "nbar_over_q", "g", "lam-bath", "nbar-bath", "g-bath"])
    def test_non_finite_scan_exits_2(self, tmp_path, capsys, body, named):
        code, out, err, caught = run_config(tmp_path, capsys, "witness", body)
        assert code == 2
        assert err.startswith("error: violation_scan is not finite on ")
        assert named in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert out == "" and not caught


class TestDeviceNonFinite:
    @pytest.mark.parametrize("key,field", [
        ("temperature_k", "temperature"), ("nbar", "nbar"), ("gamma_e_rad_per_s_t", "gyromagnetic_ratio"),
        ("cooling_rate_hz", "cooling_rate"), ("cooling_time_s", "cooling_time"),
        ("larmor_hz", "larmor_frequency"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, key, field, value):
        # temperature_k = Infinity once died with a ZeroDivisionError and exit 1
        code, out, err, caught = run_config(tmp_path, capsys, "sensitivity", {key: value})
        assert code == 2
        assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err
        assert out == "" and not caught


class TestOutputFileMode:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask-022", "umask-077", "umask-002"])
    def test_out_files_take_the_mode_open_gives(self, tmp_path, capsys, umask, mode):
        # mkstemp creates 0o600 files, and the rename kept that mode whatever the umask
        old = os.umask(umask)
        try:
            assert run_cli(["table", "--out", str(tmp_path / "t.csv")], capsys)[0] == 0
            assert run_cli(["witness", "--out", str(tmp_path / "w.json"), "--format", "json"],
                           capsys)[0] == 0
        finally:
            os.umask(old)
        for name in ("t.csv", "w.json", "w.json.landmarks.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "w.json", "w.json.landmarks.json"]

    def test_verify_report_takes_the_mode_open_gives(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_checks", lambda seed: {"all_pass": True})
        old = os.umask(0o027)
        try:
            assert run_cli(["verify", "--out", str(tmp_path / "v.json")], capsys)[0] == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "v.json").stat().st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path, capsys):
        # the rename once gave an existing private file 0o666 less the umask
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        old = os.umask(0o022)
        try:
            assert run_cli(["table", "--out", str(out)], capsys)[0] == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_text() == run_cli(["table"], capsys)[1]

    def test_symlink_writes_its_target(self, tmp_path, capsys):
        # the rename once replaced the link by a file and left its target stale
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real.name)
        assert run_cli(["table", "--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text() == run_cli(["table"], capsys)[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        # --out once renamed a temporary file over whatever it named, so a
        # FIFO (or a device) became a regular file and its reader got nothing
        code, table, _ = run_cli(["table"], capsys)
        fifo = tmp_path / "t.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(["table", "--out", str(fifo)], capsys)[0] == code == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [table.encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestUnwritableOut:
    # an unwritable --out once ended in a traceback and exit 1, the code of a
    # verification failure, and a missing directory named the temporary file
    @pytest.mark.parametrize("name", ["", "missing/x.csv"], ids=["directory", "missing_directory"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, name):
        out = str(tmp_path / name) if name else str(tmp_path)
        code, stdout, err = run_cli(["table", "--out", out], capsys)
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: ")
        assert ".spinlev-" not in err and list(tmp_path.iterdir()) == []

    def test_closed_out_fifo_keeps_stdout(self, tmp_path, capfd):
        # a broken --out FIFO once pointed the caller's stdout at /dev/null
        fifo = tmp_path / "w.csv"
        os.mkfifo(fifo)
        got = []

        def read_10_bytes():
            with open(fifo, "rb", buffering=0) as fh:
                got.append(fh.read(10))

        reader = threading.Thread(target=read_10_bytes, daemon=True)
        reader.start()
        assert cli.main(["witness", "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and len(got[0]) == 10
        print("still here")
        assert capfd.readouterr().out == "still here\n"

    def test_closed_pipe_exits_0_quietly(self, child_env):
        # a reader that stops after 10 bytes (as head -c 10 does) is not an error
        proc = subprocess.Popen([sys.executable, "-m", "spinlev.cli", "witness"], env=child_env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert len(head) == 10 and err == b""


class TestSensitivityExtremeDevice:
    def test_mass_underflowing_x0_exits_2(self, tmp_path, capsys):
        # x0 = 1e-325 rounds to 0
        code, out, err, caught = run_config(tmp_path, capsys, "sensitivity", {"mass_kg": 1e308, "freq_hz": 1e307})
        assert code == 2
        assert "x0" in err and "mass" in err and "Traceback" not in err
        assert out == "" and not caught

    def test_heavy_mass_writes_rows(self, tmp_path, capsys):
        # x0 = 2.9e-169 is in range; its product 2 m omega overflowed, and this exited 2
        code, out, err, caught = run_config(tmp_path, capsys, "sensitivity", {"mass_kg": 1e300})
        assert code == 0 and err == "" and not caught
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(math.isfinite(float(r["eta_n_per_sqrt_hz"])) for r in rows)

    def test_infinite_thermal_variance_exits_2(self, tmp_path, capsys):
        code, out, err, caught = run_config(tmp_path, capsys, "sensitivity", {"q_factor": 1e-300})
        assert code == 2
        assert "thermal" in err and "not finite" in err and "Traceback" not in err
        assert out == "" and not caught


class TestUnderflowingCoolingFactor:
    def test_zero_xi_exits_2(self, tmp_path, capsys):
        # xi = e^(-1e303) underflows to 0, which leaves the optimal coupling unbounded
        code, out, err, caught = run_config(tmp_path, capsys, "sensitivity", {"cooling_time_s": 1e300})
        assert code == 2
        assert err.startswith("error:") and "xi" in err and "Traceback" not in err
        assert out == "" and not caught


class TestSequencesConfig:
    @pytest.mark.parametrize("sub", ["sensitivity", "trajectory"])
    @pytest.mark.parametrize("value", ["ramsey", {"ramsey": 1}, ["ramsey", 3], [None]])
    def test_not_a_list_of_names_exits_2(self, tmp_path, capsys, sub, value):
        code, out, err, _ = run_config(tmp_path, capsys, sub, {"sequences": value})
        assert code == 2
        assert err.startswith("error: sequences must be a list of sequence names")
        assert out == ""

    @pytest.mark.parametrize("sub", ["sensitivity", "trajectory"])
    def test_unknown_name_exits_2(self, tmp_path, capsys, sub):
        code, _, err, _ = run_config(tmp_path, capsys, sub, {"sequences": ["ramsey", "uhrig7"]})
        assert code == 2
        assert "unknown sequence 'uhrig7'" in err

    @pytest.mark.parametrize("sub", ["sensitivity", "trajectory"])
    def test_custom_without_pulse_times_exits_2(self, tmp_path, capsys, sub):
        # a config cannot give pulse times, so "custom" is no sequence it can name
        code, out, err, _ = run_config(tmp_path, capsys, sub, {"sequences": ["custom"]})
        assert code == 2
        assert err.startswith("error:") and "custom" in err
        assert out == ""

    @pytest.mark.parametrize("sub", ["sensitivity", "trajectory"])
    def test_empty_list_writes_header_only(self, tmp_path, capsys, sub):
        code, out, err, _ = run_config(tmp_path, capsys, sub, {"sequences": []})
        assert code == 0, err
        assert len(out.splitlines()) == 1


class TestNoThreadKnobs:
    def test_threads_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_environment_is_not_read(self, capsys, monkeypatch):
        monkeypatch.delenv("SPINLEV_THREADS", raising=False)
        plain = run_cli(["table", "--format", "json"], capsys)
        monkeypatch.setenv("SPINLEV_THREADS", "many")
        assert run_cli(["table", "--format", "json"], capsys) == plain
        assert plain[0] == 0 and plain[2] == ""


class TestReadmeFlags:
    def test_global_flag_block_matches_parser(self):
        # the fenced block after "Global flags work before or after the subcommand"
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lead = text.index("Global flags work before or after the subcommand")
        start = text.index("```\n", lead) + 4
        block = text[start:text.index("```", start)]
        documented = {line.split()[0] for line in block.splitlines() if line.startswith("--")}
        options = {opt for action in cli.build_parser()._actions
                   for opt in action.option_strings if opt.startswith("--")}
        assert documented == options - {"--help"}


class TestReadmeApiNames:
    MODULES = ("cli", "constants", "dynamics", "oracle", "pulses", "sensing", "units", "verify", "witness")

    def test_every_module_name_resolves(self):
        # a backticked `module.name` left behind by a deleted function fails here
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        names = re.findall(rf"`({'|'.join(self.MODULES)})\.(\w+)", text)
        assert len(names) >= 20  # the pattern sees the references
        missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(f"spinlev.{m}"), n)]
        assert missing == []


class TestCachedParser:
    def test_no_state_carries_between_calls(self, tmp_path, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "run_checks",
                            lambda seed: seen.append(seed) or {"all_pass": True})
        out = tmp_path / "t.json"
        code, stdout, err = run_cli(["table", "--format", "json", "--out", str(out)], capsys)
        assert code == 0 and stdout == "" and err == ""
        json.loads(out.read_text())
        code, stdout, err = run_cli(["table"], capsys)
        assert code == 0 and err == ""
        assert stdout.startswith("sequence,omega_tau,")  # csv, on stdout
        for argv in (["verify", "--seed", "5"], ["verify"]):
            run_cli(argv, capsys)
        assert seen == [5, verify.DEFAULT_SEED]
        assert cli.build_parser() is not cli.build_parser()

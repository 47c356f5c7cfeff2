"""Self-verification suite: per-check timings stay out of the report, the
Monte Carlo checks report their worst comparisons, and the suite needs no
scipy.optimize."""

import json
import logging
import math
import subprocess
import sys

from spinlev import cli, verify, witness


def test_check_timings_logged_at_debug_not_reported(caplog):
    quiet = json.dumps(verify.run_checks(), sort_keys=True)
    assert caplog.records == []  # DEBUG is below the default WARNING level
    with caplog.at_level(logging.DEBUG, logger="spinlev.verify"):
        report = verify.run_checks()
    records = [r for r in caplog.records if r.name == "spinlev.verify"]
    assert len(records) == 14
    assert [r.check for r in records] == [c["check_name"] for c in report["checks"]]
    assert all(r.levelno == logging.DEBUG and r.elapsed_s >= 0.0 for r in records)
    assert json.dumps(report, sort_keys=True) == quiet
    assert "elapsed" not in quiet


def test_report_bytes_unchanged_with_debug_on(tmp_path, caplog):
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    code = cli.main(["verify", "--out", str(quiet)])
    with caplog.at_level(logging.DEBUG, logger="spinlev"):
        assert cli.main(["verify", "--out", str(loud)]) == code
    assert loud.read_bytes() == quiet.read_bytes()
    # the bath check's batch, then mc_determinism's two runs; every other
    # oracle record is one oracle.evolve call
    oracle_records = [r for r in caplog.records if r.name == "spinlev.oracle"]
    bath = [r for r in oracle_records if hasattr(r, "n_trajectories")]
    assert [r.n_trajectories for r in bath] == [1500, 200, 200]
    assert all(hasattr(r, "n_pieces") for r in oracle_records if r not in bath)
    assert b"draw_s" not in loud.read_bytes() and b"product_s" not in loud.read_bytes()


def test_oracle_branch_fidelity_reports_fock_margins():
    check = verify.check_oracle_branch_fidelity(verify.DEFAULT_SEED)
    obs = check["observed"]
    assert set(obs) == {"worst_fidelity", "worst_tail", "worst_norm_drift"}
    assert check["pass"] is (obs["worst_fidelity"] > 1 - 1e-8)
    # the per-segment check in oracle.evolve bounds both margins
    assert 0.0 <= obs["worst_tail"] < 1e-8
    assert 0.0 <= obs["worst_norm_drift"] <= 1e-10


def test_bath_monte_carlo_reports_each_worst_comparison():
    check = verify.check_bath_monte_carlo(verify.DEFAULT_SEED)
    obs = check["observed"]
    assert obs["worst_z"] == max(obs["z"].values())
    assert set(obs["at_worst"]) == set(obs["z"]) == {"dvar_sx", "dq2", "dp2", "dqp", "dsyq", "dsyp"}
    for name, row in obs["at_worst"].items():
        assert set(row) == {"estimate", "closed_form", "standard_error", "z", "n",
                            "nbar_over_q", "omega_tau"}
        assert row["z"] == obs["z"][name]
        assert row["z"] == abs(row["estimate"] - row["closed_form"]) / row["standard_error"]
        assert row["n"] == 1500


def test_truncation_roots_match_brentq():
    # the bisection on the array kernel against scipy's root finder on the
    # one-point closed forms
    from scipy.optimize import brentq

    roots = verify.check_witness_truncation_band(verify.DEFAULT_SEED)["observed"]
    omega = 2 * math.pi * 100
    for gr in (0.5, 1.0, 2.0):
        lam = witness.pulsed_effective_lambda(gr * omega, omega, 0.1 * math.pi / omega)
        ref = brentq(lambda nb: witness.thermal_wb(lam, nb, omega, 0.0, math.pi / omega)
                     - witness.thermal_wen(lam, nb, omega, math.pi / omega), 0.05, 100.0, xtol=1e-14)
        assert abs(roots[str(gr)] - ref) <= 1e-12 * ref


def test_run_checks_leaves_scipy_optimize_unloaded(child_env):
    code = ("import sys, spinlev.verify as v; v.run_checks(); "
            "print('scipy.optimize' in sys.modules, 'scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"

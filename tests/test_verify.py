"""Self-verification suite: per-check timings stay out of the report."""

import json
import logging

from spinlev import verify


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


def test_oracle_branch_fidelity_reports_fock_margins():
    check = verify.check_oracle_branch_fidelity(verify.DEFAULT_SEED)
    obs = check["observed"]
    assert set(obs) == {"worst_fidelity", "worst_tail", "worst_norm_drift"}
    assert check["pass"] is (obs["worst_fidelity"] > 1 - 1e-8)
    # the per-segment check in oracle.evolve bounds both margins
    assert 0.0 <= obs["worst_tail"] < 1e-8
    assert 0.0 <= obs["worst_norm_drift"] <= 1e-10

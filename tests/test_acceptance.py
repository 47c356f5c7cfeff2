"""Acceptance criteria, one test per numbered criterion.

`spinlev verify` owns each check, its route and its bound. Eleven criteria
read their check's record from one `verify.run_checks` report, the session
fixture `verify_report`, and assert its pass flag and its observed values
against the tolerance it states. Criterion 12 runs `verify` through the CLI.

Criteria 7a and 8 (band) keep independent routes until `verify`'s
`witness_truncation_band` and `sensitivity_min_band` are rebuilt on them
(ROADMAP.md); those two checks still apply bounds with no source in the paper
and fail:
  * 7a: at tau = 0.1 pi/omega the pulsed witness violation ceases at an
    order-one nbar, and the closed-form crossing (half-period formulas at
    lam_eff = omega g tau^2 / 4) agrees within 1% with that of the thermally
    averaged exact echo: 10.235, 6.278, 3.792 against 10.250, 6.287, 3.798
    for g/omega = 0.5, 1, 2. The 0.15% gap is lam_eff against the exact
    |beta| = 4 (g/omega) sin^2(omega tau / 4). (2 nbar + 1)^3 ~ 3/(2 lam_eff^2)
    puts g/omega = 0.5 above 10, so no upper edge such as 10 is asserted.
  * 8 (band): thermal force noise bounds every sequence at every nu from
    below, at 2.24e-21 N/rtHz for the reference parameters. The CP2 minimum
    in [3e3, 3e4] Hz is 3.02e-21 (1.35x the floor), the echo's 2.40e-20 and
    Ramsey's 1.13e-18. The 1e-22 bound of `sensitivity_min_band` lies below
    that floor; the paper's 1e-23 belongs to parameters not held here.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from spinlev import oracle, pulses, sensing, verify, witness
from spinlev.constants import HBAR, KB
from spinlev.units import PhysicalParams

# criterion -> (verify check it reads, the observed values its tolerance bounds)
READS = {
    "01": ("oracle_branch_fidelity", lambda o: [1 - o["worst_fidelity"]]),
    "02": ("squeezing_closed_forms", lambda o: [o]),
    "03": ("backaction_zeros", lambda o: [o["cp_rel_dev"]]),
    "04": ("witness_identity", lambda o: [o]),
    "05": ("witness_oracle_agreement", lambda o: [o["worst_z"]]),
    "06": ("bath_monte_carlo", lambda o: [o["worst_z"]]),
    "07b": ("witness_max_nbar_g_independence", lambda o: [o["spread"]]),
    "08-shape": ("sensitivity_shape", lambda o: o["low_nu_flatness"].values()),
    "09": ("si_anchors", lambda o: [o["eta_factor"], o["gradient_factor"], o["g_factor"]]),
    "10": ("sql_structure", lambda o: [o["balance_rel"], o["g_sweep_rel"]]),
    "11": ("squeezing_oracle", lambda o: [o]),
}
# checks that apply bounds criteria 07a and 08-band replace, and so fail
KNOWN_FAILING = {"witness_truncation_band", "sensitivity_min_band"}


@pytest.mark.parametrize("criterion", READS)
def test_criterion_reads_verify_record(criterion, verify_report):
    name, bounded = READS[criterion]
    record = next(c for c in verify_report["checks"] if c["check_name"] == name)
    assert record["pass"], record
    assert all(v <= record["tolerance"] for v in bounded(record["observed"])), record


def exact_echo_violation(g, omega, tau, nbar, n_nodes=40):
    """W_b - W_en after the exact one-pulse echo from the thermal state, the
    Glauber-P mixture of coherent starts alpha ~ CN(0, nbar): the raw moments
    of an n_nodes^2 Gauss-Hermite rule, stepped exactly in one call, averaged."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    alphas = math.sqrt(nbar) * (nodes[:, None] + 1j * nodes[None, :])
    raw = oracle._branch_raw_moments(alphas.ravel(), g, omega, pulses.hahn_echo(tau))
    m = oracle._record_from_raw(np.outer(weights, weights).ravel() @ raw / math.pi)
    c = witness.optimize_coefficients(m)
    return witness.separable_bound(c) - witness.witness_value(m, c)


def test_criterion_07a_pulsed_truncation_band():
    omega = 2 * math.pi * 100
    tau = 0.1 * math.pi / omega
    for g_over_omega in (0.5, 1.0, 2.0):
        g = g_over_omega * omega
        lam = witness.pulsed_effective_lambda(g, omega, tau)

        def violation(nbar):
            return (witness.thermal_wb(lam, nbar, omega, 0.0, math.pi / omega)
                    - witness.thermal_wen(lam, nbar, omega, math.pi / omega))

        cease = brentq(violation, 0.05, 100.0)
        exact = brentq(lambda nbar: exact_echo_violation(g, omega, tau, nbar), 0.05, 100.0)
        assert cease >= 0.1, (g_over_omega, cease)
        assert abs(cease - exact) / exact <= 0.01, (g_over_omega, cease, exact)


def test_criterion_08_sensitivity_band_minimum():
    # Carr-Purcell evades backaction down to the thermal-force floor.
    # V_th = 2 omega (nbar/Q) int K^2 and, by Cauchy-Schwarz,
    # |int K e^{-i nu s} ds|^2 <= tau int K^2, so no sequence beats
    # sqrt(4 m (omega/Q) nbar hbar omega (tau + t_c) / tau) at any nu: the
    # fluctuation-dissipation floor times the duty factor. A 1 um diamond
    # (1.5e-14 kg) in a 100 Hz trap, Q = 1e6, nbar/Q = 1, cooled at 1 kHz for 100 us.
    p = PhysicalParams(mass=1.5e-14, trap_frequency=2 * math.pi * 100, gradient=1.0, nbar=1e6,
                       quality_factor=1e6, cooling_rate=1e3, cooling_time=1e-4)
    tau, omega = 1e-4, p.trap_frequency
    nus = 2 * math.pi * np.geomspace(3e3, 3e4, 120)
    best = {kind: sensing.sensitivity_spectrum(p, pulses.make_sequence(kind, tau), nus).eta.min()
            for kind in pulses.NAMED_KINDS}
    floor = sensing.thermal_limit_eta(p.mass, omega, p.quality_factor, p.nbar * HBAR * omega / KB) \
        * math.sqrt((tau + p.cooling_time) / tau)
    cp = best["carr_purcell2"]
    assert floor <= cp <= 2 * floor, (cp, floor)
    assert cp < best["hahn_echo"] < best["ramsey"], best


def test_criterion_12_verify_determinism(tmp_path, child_env, verify_report):
    outputs = []
    for run in range(3):
        out = tmp_path / f"report-{run}.json"
        proc = subprocess.run([sys.executable, "-m", "spinlev.cli", "verify", "--seed", str(verify.DEFAULT_SEED),
                               "--out", str(out)], capture_output=True, text=True, env=child_env)
        assert proc.returncode == 1, proc.stderr  # the two known failing checks
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report = json.loads(outputs[0])
    assert report["n_checks"] == len(verify.ALL_CHECKS)
    assert {c["check_name"] for c in report["checks"] if not c["pass"]} == KNOWN_FAILING
    assert report == json.loads(json.dumps(verify_report))  # the report the criteria read
    # a new check lands with a criterion that reads it; this one reads mc_determinism
    assert {c["check_name"] for c in report["checks"]} == \
        {name for name, _ in READS.values()} | KNOWN_FAILING | {"mc_determinism"}

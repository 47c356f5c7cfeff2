r"""Self-verification suite: every headline claim of the package checked
against an independent route (oracle evolution, Monte Carlo, quadrature-free
closed forms, documented anchors).

Each check yields {check_name, expected, observed, tolerance, pass}. The
report is deterministic for a fixed seed: checks are pure, Monte Carlo uses
counter-based per-trajectory seeding, and the checks run in a fixed order,
so the serialized report is byte-identical from run to run.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from . import dynamics, oracle, pulses, sensing, witness
from .constants import GAMMA_E_DEFAULT
from .units import REFERENCE_DEVICE, NaturalParams, PhysicalParams, params_from_dict, to_natural

DEFAULT_SEED = 20250826

_log = logging.getLogger(__name__)


def _check(name, expected, observed, tolerance, ok):
    return {
        "check_name": name,
        "expected": expected,
        "observed": observed,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def _nat(g, omega, nbar=0.0, q=1e6):
    return NaturalParams(g=g, omega=omega, lam=2 * g / omega, nbar=nbar,
                         gamma=omega / q, x0=1.0, larmor=0.0)


def check_oracle_branch_fidelity(seed):
    worst, worst_tail, worst_drift = 1.0, 0.0, 0.0
    for kind in pulses.NAMED_KINDS:
        for gr in (0.1, 1.0, 2.0):
            for wt in (0.1, math.pi, 2 * math.pi):
                seq = pulses.make_sequence(kind, wt)
                closed = dynamics.evolve_state(seq, gr, 1.0)
                n_max = oracle.suggested_n_max((4 * gr) ** 2 + 1)
                st = oracle.evolve(oracle.initial_state(0j, n_max), _nat(gr, 1.0), seq)
                worst = min(worst, oracle.branch_fidelity(closed, st))
                tail, drift = st.margins()
                worst_tail, worst_drift = max(worst_tail, tail), max(worst_drift, drift)
    return _check("oracle_branch_fidelity", "min fidelity > 1 - 1e-8",
                  {"worst_fidelity": worst, "worst_tail": worst_tail, "worst_norm_drift": worst_drift},
                  1e-8, worst > 1 - 1e-8)


def check_squeezing_closed_forms(seed):
    worst = 0.0
    for kind in pulses.NAMED_KINDS:
        for wt in np.linspace(2 * math.pi / 100, 2 * math.pi, 100):
            seq = pulses.make_sequence(kind, float(wt))
            exact = pulses.squeezing_parameter(seq, 0.7, 1.0)
            closed = pulses.zeta_closed_form(kind, 0.7, 1.0, float(wt))
            if closed != 0:
                worst = max(worst, abs(exact - closed) / abs(closed))
    return _check("squeezing_closed_forms", "max rel dev <= 1e-10", worst, 1e-10,
                  worst <= 1e-10)


def check_backaction_zeros(seed):
    worst_zero = max(
        pulses.residual_displacement(pulses.ramsey(wt), 1.0, 1.0)[1]
        for wt in (2 * math.pi, 4 * math.pi, 6 * math.pi)
    )
    worst_cp = 0.0
    for wt in np.linspace(0.05, 2 * math.pi, 60):
        dn = pulses.residual_displacement(pulses.carr_purcell2(float(wt)), 1.0, 1.0)[1]
        closed = pulses.delta_n_closed_form("carr_purcell2", 1.0, 1.0, float(wt))
        if closed > 1e-20:
            worst_cp = max(worst_cp, abs(dn - closed) / closed)
    ok = worst_zero < 1e-12 and worst_cp <= 1e-10
    return _check("backaction_zeros", "Ramsey zeros < 1e-12 g^2/w^2; CP closed form to 1e-10",
                  {"ramsey_zero_max": worst_zero, "cp_rel_dev": worst_cp}, 1e-10, ok)


def check_witness_identity(seed):
    worst = 0.0
    for lam in np.linspace(0.0, 2.0, 21):
        for nb in np.linspace(0.0, 10.0, 11):
            c = witness.halfperiod_coefficients(float(lam), float(nb))
            worst = max(worst, abs(witness.separable_bound(c)
                                   - witness.thermal_wb(float(lam), float(nb), 1.0, 0.0, math.pi)))
    exact0 = (witness.thermal_wb(0.0, 1.0, 1.0, 0.0, 1.0) == 0.5
              and witness.thermal_wen(0.0, 1.0, 1.0, 1.0) == 0.5)
    return _check("witness_identity", "bound identity to 1e-12; exactly 1/2 at lam=0",
                  worst, 1e-12, worst <= 1e-12 and exact0)


def check_witness_oracle(seed):
    lam, omega = 0.5, 1.0
    g = lam * omega / 2
    seq = pulses.ramsey(math.pi / omega)
    est = oracle.witness_moments(_nat(g, omega), seq)
    pure_diff = abs(est.w_en - witness.thermal_wen(lam, 0.0, omega, math.pi / omega))
    worst_z = 0.0
    for nb in (0.5, 1.0, 2.0):
        cfg = oracle.OracleConfig(n_trajectories=10000, seed=seed)
        mc = oracle.witness_moments(_nat(g, omega, nb), seq, cfg, nbar=nb,
                                    coefficients=witness.halfperiod_coefficients(lam, nb))
        closed = witness.thermal_wen(lam, nb, omega, math.pi / omega)
        worst_z = max(worst_z, abs(mc.w_en - closed) / mc.w_en_se)
    ok = pure_diff <= 1e-8 and worst_z <= 3.0
    return _check("witness_oracle_agreement", "pure diff <= 1e-8; thermal within 3 sigma",
                  {"pure_diff": pure_diff, "worst_z": worst_z}, 3.0, ok)


def check_bath_monte_carlo(seed):
    lam, omega = 0.5, 1.0
    g = lam * omega / 2
    configs = [(noq, wt) for noq in (1e-3, 1.0) for wt in (math.pi / 2, math.pi, 2 * math.pi)]
    cfg = oracle.OracleConfig(n_trajectories=1500, seed=seed)
    stats = oracle.thermal_trajectories_batch(
        _nat(g, omega), [(pulses.ramsey(wt / omega), noq) for noq, wt in configs], cfg)
    z = {}  # per statistic, the largest z over the six configurations
    worst = {}  # per statistic, the comparison at that configuration
    for (noq, wt), st in zip(configs, stats):
        d = witness.bath_deltas(lam, noq, omega, wt / omega)
        for name, val, se in st.as_pairs():
            closed = getattr(d, name)
            zi = abs(val - closed) / se if se > 0 else 0.0
            if name not in z or zi > z[name]:
                z[name] = zi
                worst[name] = {"estimate": val, "closed_form": closed, "standard_error": se,
                               "z": zi, "n": cfg.n_trajectories,
                               "nbar_over_q": noq, "omega_tau": wt}
    worst_z = max(z.values())
    return _check("bath_monte_carlo", "all six statistics within 3 sigma (36 comparisons)",
                  {"worst_z": worst_z, "z": z, "at_worst": worst}, 3.0, worst_z <= 3.0)


def check_witness_truncation_band(seed):
    omega = 2 * math.pi * 100
    tau = 0.1 * math.pi / omega
    ratios = (0.5, 1.0, 2.0)
    lam = np.array([witness.pulsed_effective_lambda(gr * omega, omega, tau) for gr in ratios])

    def positive(nb):  # the sign of W_b - W_en at each coupling
        w_b, w_en = witness._thermal(lam, nb, omega, 0.0, math.pi / omega)
        return w_b > w_en

    lo, hi = np.full(lam.size, 0.05), np.full(lam.size, 100.0)
    at_lo = positive(lo)
    if np.any(positive(hi) == at_lo):
        raise ValueError("W_b - W_en does not change sign on nbar in [0.05, 100]")
    roots = witness._bisect(lambda nb: positive(nb) == at_lo, lo, hi)
    roots = dict(zip(map(str, ratios), roots.tolist()))
    ok = all(0.1 <= r <= 10.0 for r in roots.values())
    return _check("witness_truncation_band", "violation ceases at nbar in [0.1, 10] for all g/w",
                  roots, None, ok)


def check_witness_max_nbar(seed):
    omega = 2 * math.pi * 100
    vals = [witness.max_nbar_for_violation(gr * omega, omega) for gr in (0.5, 1.0, 2.0)]
    spread = (max(vals) - min(vals)) / min(vals)
    return _check("witness_max_nbar_g_independence", "max nbar at tau* agrees within 5%",
                  {"values": vals, "spread": spread}, 0.05, spread <= 0.05)


def check_sensitivity_shape(seed):
    p = params_from_dict(REFERENCE_DEVICE)
    tau = 1e-4
    omega = p.trap_frequency
    flatness = {}
    for kind in pulses.NAMED_KINDS:
        seq = pulses.make_sequence(kind, tau)
        e1 = sensing.force_sensitivity(p, seq, 2 * math.pi * 1.0).eta
        e10 = sensing.force_sensitivity(p, seq, 2 * math.pi * 10.0).eta
        flatness[kind] = abs(e1 / e10 - 1)
    dc = {k: abs(pulses.dc_phase(pulses.make_sequence(k, tau), 1.0, omega))
          for k in pulses.NAMED_KINDS}
    ordering = dc["carr_purcell2"] < dc["hahn_echo"] < dc["ramsey"]
    flat = all(v < 0.01 for v in flatness.values())
    return _check("sensitivity_shape", "flat low-nu curves; CP DC response suppressed below echo below Ramsey",
                  {"low_nu_flatness": flatness, "dc_response_per_g": dc}, 0.01,
                  flat and ordering)


def check_sensitivity_min_band(seed):
    p = params_from_dict(REFERENCE_DEVICE)
    seq = pulses.carr_purcell2(1e-4)
    nus = [2 * math.pi * float(nh) for nh in np.geomspace(3e3, 3e4, 120)]
    best = float(sensing.sensitivity_spectrum(p, seq, nus).eta.min())
    ok = best < 1e-22  # one order of magnitude above the 1e-23 target
    return _check("sensitivity_min_band", "CP minimum eta below 1e-22 N/rtHz in [3e3, 3e4] Hz",
                  best, 1e-22, ok)


def check_si_anchors(seed):
    eta = sensing.projection_limit_eta(1e-12, 2 * math.pi * 1e6, 1e4, 1e-6, GAMMA_E_DEFAULT)
    f_eta = max(eta / 5e-11, 5e-11 / eta)
    grad = sensing.sql_gradient(1.8e-15, 300e-6, 300e-6, 1.0, GAMMA_E_DEFAULT)
    f_grad = max(grad / 7500.0, 7500.0 / grad)
    nat = to_natural(PhysicalParams(mass=3e-15, trap_frequency=2 * math.pi * 100,
                                    gradient=1e4, nbar=0.0))
    ratio_rad = nat.g / nat.omega
    ratio_hz = ratio_rad / (2 * math.pi)  # gyromagnetic ratio quoted in Hz/T
    f_g = min(max(ratio_rad / 2, 2 / ratio_rad), max(ratio_hz / 2, 2 / ratio_hz))
    ok = f_eta <= 3 and f_grad <= 3 and f_g <= 3
    return _check("si_anchors", "each anchor within factor 3 under its logged convention",
                  {"projection_eta": eta, "eta_factor": f_eta,
                   "sql_gradient": grad, "gradient_factor": f_grad,
                   "g_over_omega_rad": ratio_rad, "g_over_omega_hz": ratio_hz,
                   "g_factor": f_g}, 3.0, ok)


def check_sql_structure(seed):
    omega, tau, xi = 2 * math.pi * 100, 1e-4, 0.25
    worst_bal = 0.0
    worst_var = 0.0
    for kind in pulses.NAMED_KINDS:
        seq = pulses.make_sequence(kind, tau)
        gstar = sensing.optimal_coupling(kind, omega, tau, xi)
        dn = pulses.residual_displacement(seq, gstar, omega)[1]
        worst_bal = max(worst_bal, abs(0.25 - dn * dn * xi) / 0.25)
        # balance-point eta from explicit g values across two decades
        vals = []
        for g in np.geomspace(gstar / 10, gstar * 10, 9):
            a = pulses.residual_displacement(seq, g, omega)[1] / g ** 2
            phi = abs(pulses.dc_phase(seq, g, omega)) / g
            vals.append(math.sqrt(math.sqrt(xi) * a) / phi)
        worst_var = max(worst_var, (max(vals) - min(vals)) / min(vals))
    ok = worst_bal <= 1e-9 and worst_var <= 1e-9
    return _check("sql_structure", "projection = backaction at g*; SQL g-invariant to 1e-9",
                  {"balance_rel": worst_bal, "g_sweep_rel": worst_var}, 1e-9, ok)


def check_squeezing_oracle(seed):
    worst = 0.0
    for n in (100, 10000):
        for kap in np.linspace(0.1, 3.0, 30):
            zeta = kap / n
            th, f = sensing.squeezed_rotation(n, zeta)
            fo = oracle.gaussian_noise_factor(n, zeta, th)
            worst = max(worst, abs(f - fo) / f)
            if f > 1 + 1e-15:
                worst = math.inf
    return _check("squeezing_oracle", "factor matches Gaussian oracle within 5%; factor <= 1",
                  worst, 0.05, worst <= 0.05)


def check_mc_determinism(seed):
    nat = _nat(0.25, 1.0)
    cfg = oracle.OracleConfig(n_trajectories=200, seed=seed)
    a = oracle.thermal_trajectories(nat, pulses.ramsey(math.pi), cfg, 0.5)
    b = oracle.thermal_trajectories(nat, pulses.ramsey(math.pi), cfg, 0.5)
    ok = a == b
    return _check("mc_determinism", "repeated runs with the same seed identical",
                  ok, None, ok)


ALL_CHECKS = (
    check_oracle_branch_fidelity,
    check_squeezing_closed_forms,
    check_backaction_zeros,
    check_witness_identity,
    check_witness_oracle,
    check_bath_monte_carlo,
    check_witness_truncation_band,
    check_witness_max_nbar,
    check_sensitivity_shape,
    check_sensitivity_min_band,
    check_si_anchors,
    check_sql_structure,
    check_squeezing_oracle,
    check_mc_determinism,
)


def run_checks(seed: int = DEFAULT_SEED) -> dict:
    """Run the full suite; ordered results, deterministic for fixed seed.

    Each check's wall time is logged at DEBUG on the "spinlev.verify"
    logger (record attributes check and elapsed_s), never put in the report.
    """
    results = []
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        results.append(fn(seed))
        elapsed = time.perf_counter() - t0
        name = results[-1]["check_name"]
        _log.debug("%s took %.6f s", name, elapsed, extra={"check": name, "elapsed_s": elapsed})
    return {
        "seed": seed,
        "checks": results,
        "n_checks": len(results),
        "all_pass": all(r["pass"] for r in results),
    }

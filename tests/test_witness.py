"""Entanglement witness: bounds, closed forms, optimization, bath corrections."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinlev import witness
from spinlev.units import ParameterError
from spinlev.witness import (
    DegenerateMomentsError,
    WitnessCoefficients,
    bath_deltas,
    bath_witness,
    halfperiod_coefficients,
    make_result,
    noiseless_moments,
    optimize_coefficients,
    pulsed_effective_lambda,
    separable_bound,
    t_fixed_pulseless,
    thermal_wb,
    thermal_wen,
    violation_scan,
    witness_value,
)


class TestSeparableBound:
    def test_zero_coefficients(self):
        assert separable_bound(WitnessCoefficients(0, 0, 0, 0)) == 0.5

    def test_unit_cross_terms(self):
        assert separable_bound(WitnessCoefficients(a_y=0, b_y=1, a_z=1, b_z=0)) == 1.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WitnessCoefficients(math.nan, 0, 0, 0)


class TestCoefficientValidation:
    FIELDS = ("a_y", "b_y", "a_z", "b_z")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", FIELDS)
    def test_names_the_first_nonfinite_field(self, field, bad):
        values = dict.fromkeys(self.FIELDS, 0.5) | {field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            WitnessCoefficients(**values)
        later = self.FIELDS[self.FIELDS.index(field):]
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            WitnessCoefficients(**dict.fromkeys(self.FIELDS, 0.5) | dict.fromkeys(later, bad))

    def test_arrays(self):
        good = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        WitnessCoefficients(good, good, good, good)
        bad = good.copy()
        bad[1, 2] = math.nan
        with pytest.raises(ValueError, match="^a_z must be finite$"):
            WitnessCoefficients(good, good, bad, good)

    @pytest.mark.parametrize("lam,nbar,initial", [(1e200, 0.0, "ground"), (0.5, 1e308, "thermal")])
    def test_overflowing_one_point_bath_witness_raises(self, lam, nbar, initial):
        # the coefficients overflow; the result check names the inputs, as a scan's does
        message = (f"bath_witness is not finite at lam = {lam!r}, nbar = {nbar!r}, nbar_over_q = 0.001, "
                   "omega = 1.0, omega_l = 0.0, t = 1.0")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            bath_witness(lam, nbar, 1e-3, 1.0, 0.0, 1.0, initial)

    @pytest.mark.parametrize("call,message", [
        (lambda: thermal_wen(1e200, 0.0, 1.0, 1.0),
         "thermal_wen is not finite at lam = 1e+200, nbar = 0.0, omega = 1.0, t = 1.0"),
        (lambda: noiseless_moments(1e-200, 1e308, 1.0, 0.0, 1.0),
         "noiseless_moments is not finite at lam = 1e-200, nbar = 1e+308, omega = 1.0, omega_l = 0.0, t = 1.0"),
        (lambda: thermal_wb(math.inf, 0.0, 1.0, 0.0, 1.0),
         "thermal_wb is not finite at lam = inf, nbar = 0.0, omega = 1.0, omega_l = 0.0, t = 1.0"),
    ], ids=["thermal_wen", "noiseless_moments", "thermal_wb"])
    def test_nonfinite_one_point_closed_forms_raise_naming_inputs(self, call, message):
        # thermal_wen returned nan and noiseless_moments inf variances without a word;
        # the grid kernels keep NaN, which violation_scan counts and raises on
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_fields_of_unequal_shapes(self):
        # tested one by one, as before they were tested together
        WitnessCoefficients(0.0, np.ones(3), np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError, match="^b_z must be finite$"):
            WitnessCoefficients(0.0, np.ones(3), np.ones((2, 2)), np.array([1.0, math.inf]))


class TestClosedForms:
    def test_limits_at_zero_lambda(self):
        assert thermal_wb(0.0, 1.3, 1.0, 0.0, 2.0) == 0.5
        assert thermal_wen(0.0, 1.3, 1.0, 2.0) == 0.5
        c = halfperiod_coefficients(0.0, 2.0)
        assert (c.a_y, c.b_y, c.a_z, c.b_z) == (0, 0, 0, 0)

    def test_halfperiod_values(self):
        c = halfperiod_coefficients(1.0, 0.0)
        assert c.a_y == 0.0 and c.b_z == 0.0
        assert c.b_y == pytest.approx(math.sqrt(2) * math.exp(-2.0), rel=1e-14)
        assert c.a_z == pytest.approx(math.sqrt(2) / 5.0, rel=1e-14)

    def test_identity_bound_equals_thermal_wb(self):
        omega = 1.0
        for lam in np.linspace(0, 2, 21):
            for nbar in np.linspace(0, 10, 11):
                lhs = separable_bound(halfperiod_coefficients(lam, nbar))
                rhs = thermal_wb(lam, nbar, omega, 0.0, math.pi / omega)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_violation_positive_for_ground_state(self):
        omega = 1.0
        t = math.pi / omega
        for lam in np.linspace(0.05, 1.0, 12):
            wb = thermal_wb(lam, 0.0, omega, 0.0, t)
            wen = thermal_wen(lam, 0.0, omega, t)
            assert wb - wen > 0

    def test_small_lambda_expansion(self):
        # W_en ~ 1/2 - lambda^2 + O(lambda^4) at nbar = 0, t = pi/omega
        lam = 1e-3
        wen = thermal_wen(lam, 0.0, 1.0, math.pi)
        assert wen == pytest.approx(0.5 - lam**2, abs=5e-11)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.01, 1.5), n1=st.floats(0.0, 8.0), dn=st.floats(0.1, 3.0))
    def test_ratio_nonincreasing_in_nbar(self, lam, n1, dn):
        omega, t = 1.0, math.pi
        def ratio(nbar):
            wb = thermal_wb(lam, nbar, omega, 0.0, t)
            wen = thermal_wen(lam, nbar, omega, t)
            return (wb - wen) / wb
        assert ratio(n1 + dn) <= ratio(n1) + 1e-12

    def test_pulsed_effective_lambda(self):
        assert pulsed_effective_lambda(0.0, 1.0, 1.0) == 0.0
        assert pulsed_effective_lambda(2.0, 3.0, 0.5) == pytest.approx(
            3.0 * 2.0 * 0.25 / 4.0, rel=1e-15)


class TestWitnessValue:
    def test_product_state_value(self):
        m = noiseless_moments(0.0, 0.0, 1.0, 0.0, 1.0)
        assert witness_value(m, WitnessCoefficients(0, 0, 0, 0)) == pytest.approx(0.5)

    def test_matches_thermal_wen_at_optimum(self):
        omega, t = 1.0, math.pi / 1.0
        for lam, nbar in [(0.3, 0.0), (0.5, 1.0), (1.0, 2.5)]:
            m = noiseless_moments(lam, nbar, omega, 0.0, t)
            c = optimize_coefficients(m)
            assert witness_value(m, c) == pytest.approx(
                thermal_wen(lam, nbar, omega, t), rel=1e-12)

    def test_make_result(self):
        r = make_result(1.0, 0.9)
        assert r.w_ratio == pytest.approx(0.1)
        assert r.n_meas == math.ceil(r.w_ratio**-2)
        assert make_result(1.0, 1.1).n_meas is None


class TestOptimizeCoefficients:
    def test_product_state_zero_coefficients(self):
        m = noiseless_moments(0.0, 0.0, 1.0, 0.0, 0.7)
        c = optimize_coefficients(m)
        assert (c.a_y, c.b_y, c.a_z, c.b_z) == pytest.approx((0, 0, 0, 0), abs=1e-14)

    def test_recovers_halfperiod_coefficients(self):
        omega = 1.0
        for lam, nbar in [(0.4, 0.0), (0.7, 1.5)]:
            m = noiseless_moments(lam, nbar, omega, 0.0, math.pi / omega)
            c = optimize_coefficients(m)
            ref = halfperiod_coefficients(lam, nbar)
            assert c.a_y == pytest.approx(ref.a_y, abs=1e-10)
            assert c.b_y == pytest.approx(ref.b_y, rel=1e-10)
            assert c.a_z == pytest.approx(ref.a_z, rel=1e-10)
            assert c.b_z == pytest.approx(ref.b_z, abs=1e-10)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(7)
        m = noiseless_moments(0.35, 0.2, 1.0, 0.0, 2.1)
        c = optimize_coefficients(m)
        best = witness_value(m, c)
        for _ in range(200):
            trial = WitnessCoefficients(*rng.uniform(-2, 2, size=4))
            assert witness_value(m, trial) >= best - 1e-12

    def test_degenerate_moments_raise(self):
        m = noiseless_moments(0.0, 0.0, 1.0, 0.0, 2 * math.pi)
        degenerate = witness.MomentRecord(
            **{f: getattr(m, f) for f in m.__dataclass_fields__})
        object.__setattr__(degenerate, "var_q", 0.0)
        object.__setattr__(degenerate, "var_p", 0.0)
        object.__setattr__(degenerate, "cov_qp", 0.0)
        with pytest.raises(DegenerateMomentsError):
            optimize_coefficients(degenerate)


class TestBathDeltas:
    def test_zero_bath(self):
        d = bath_deltas(0.5, 0.0, 1.0, 2.0)
        assert all(v == 0.0 for v in
                   (d.dvar_sx, d.dq2, d.dp2, d.dqp, d.dsyq, d.dsyp))

    def test_full_period_values(self):
        # at omega t = 2 pi the sine terms vanish
        lam, noq, omega = 0.5, 0.3, 1.0
        t = 2 * math.pi / omega
        d = bath_deltas(lam, noq, omega, t)
        assert d.dq2 == pytest.approx(noq * 4 * math.pi, rel=1e-12)
        assert d.dp2 == pytest.approx(noq * 4 * math.pi, rel=1e-12)
        assert d.dqp == pytest.approx(0.0, abs=1e-12)
        assert d.dvar_sx == pytest.approx(0.5 * lam**2 * noq * 12 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("noq", [math.inf, math.nan])
    def test_non_finite_bath_strength_rejected_by_name(self, noq):
        # inf gave +-inf fields and nan gave nan fields
        with pytest.raises(ValueError, match=r"^nbar_over_q must be finite and >= 0, got (inf|nan)$"):
            bath_deltas(0.5, noq, 1.0, 1.0)

    @pytest.mark.parametrize("noq", [-0.1, -math.inf])
    def test_negative_bath_strength_keeps_its_message(self, noq):
        # one check for the whole domain: the sign and the finiteness share its message
        with pytest.raises(ValueError, match=f"^nbar_over_q must be finite and >= 0, got {noq!r}$"):
            bath_deltas(0.5, noq, 1.0, 1.0)

    def test_linearity_in_bath_strength(self):
        a = bath_deltas(0.5, 1e-3, 1.0, 1.3)
        b = bath_deltas(0.5, 1.0, 1.0, 1.3)
        assert b.dq2 == pytest.approx(1e3 * a.dq2, rel=1e-12)
        assert b.dsyp == pytest.approx(1e3 * a.dsyp, rel=1e-12)


class TestBathWitness:
    def test_reduces_to_noiseless(self):
        omega, lam, t = 1.0, 0.5, math.pi
        r = bath_witness(lam, 0.0, 0.0, omega, 0.0, t, initial="ground")
        assert r.w_b == pytest.approx(thermal_wb(lam, 0.0, omega, 0.0, t), rel=1e-12)
        assert r.w_en == pytest.approx(thermal_wen(lam, 0.0, omega, t), rel=1e-12)

    def test_violation_truncates_with_bath(self):
        # positive violation at small omega t, negative once bath noise dominates
        lam, noq, omega = 0.5, 0.05, 1.0
        early = bath_witness(lam, 0.0, noq, omega, 0.0, 0.3 * math.pi / omega)
        assert early.w_ratio > 0
        ratios = [bath_witness(lam, 0.0, noq, omega, 0.0, t).w_ratio
                  for t in np.linspace(0.1, 40 * math.pi, 300)]
        assert min(ratios) < 0

    def test_regression_point(self):
        r = bath_witness(0.5, 0.0, 1e-3, 1.0, 0.0, math.pi / 4, initial="ground")
        assert 0 < r.w_ratio < 1
        # locked after Monte Carlo cross-check of the assembled moments
        assert r.w_ratio == pytest.approx(0.15851741531444352, rel=1e-12)


class TestViolationScan:
    def test_zero_lambda_no_landmarks(self):
        res = violation_scan("pulsed", "t", list(np.linspace(1e-4, 1e-2, 50)),
                             g=0.0, omega=2 * math.pi * 100)
        assert all(p.w_ratio == 0.0 for p in res.points)
        assert res.tau_asymp is None and res.tau_star is None

    def test_pulseless_nbar_sweep_monotone(self):
        res = violation_scan("pulseless", "nbar", list(np.linspace(0, 3, 60)),
                             lam=0.5, omega=1.0)
        ratios = [p.w_ratio for p in res.points]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 0

    def test_pulsed_violation_ceases_at_order_one_nbar(self):
        omega = 2 * math.pi * 100
        tau = 0.1 * math.pi / omega
        res = violation_scan("pulsed", "nbar", list(np.linspace(0, 20, 800)),
                             g=2 * omega, omega=omega, tau=tau)
        assert res.tau_asymp is not None
        assert 0.1 < res.tau_asymp < 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            violation_scan("bogus", "t", [0.1, 0.2])
        with pytest.raises(ValueError):
            violation_scan("pulsed", "t", [0.2, 0.1])

    @pytest.mark.parametrize("nbar_over_q", [0.0, 1e-3])
    def test_unknown_initial_rejected_with_or_without_bath(self, nbar_over_q):
        with pytest.raises(ValueError, match="initial must be 'ground' or 'thermal', got 'thermall'"):
            violation_scan("pulseless", "t", [0.1, 0.2], lam=0.5, nbar_over_q=nbar_over_q,
                           initial="thermall")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # a NaN fails the sorted test x[1:] <= x[:-1] both ways, so it needs its own check
        for grid in ([0.1, bad, 0.3], [0.1, 0.3, bad], [bad, 0.1, 0.3]):
            with pytest.raises(ValueError, match="finite"):
                violation_scan("pulseless", "t", grid, lam=0.5)

    @pytest.mark.parametrize("mode,kw", [("pulseless", {"lam": 0.5}), ("pulsed", {"g": 1.0})])
    def test_negative_times_rejected(self, mode, kw):
        # a t grid below 0 returned ratios (the one-point functions reject t < 0)
        with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got -1\.0$"):
            violation_scan(mode, "t", [-1.0, 0.5], **kw)
        assert violation_scan(mode, "t", [0.0, 0.5], **kw).sweep_value.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("call", [
        lambda: pulsed_effective_lambda(1.0, 1.0, -0.3),
        lambda: pulsed_effective_lambda(1.0, 1.0, np.array([0.3, -0.3])),
        lambda: violation_scan("pulsed", "nbar", [0.0, 1.0], g=1.0, tau=-0.3),
    ], ids=["scalar", "array", "scan"])
    def test_negative_tau_rejected(self, call):
        # the scan at tau = -0.3 equalled the one at +0.3
        with pytest.raises(ValueError, match=r"^tau must be finite and >= 0, got -0\.3$"):
            call()

    @pytest.mark.parametrize("mode,kw,key", [
        ("pulseless", {"lam": 1e200}, "lam"),
        ("pulseless", {"lam": 1e200, "nbar_over_q": 1e-3}, "lam"),
        ("pulseless", {"lam": 0.5, "nbar": 1e308}, "nbar"),
        ("pulseless", {"lam": 0.5, "nbar": 1e308, "nbar_over_q": 1e-3, "initial": "thermal"}, "nbar"),
        ("pulseless", {"lam": 0.5, "nbar_over_q": 1e308}, "nbar_over_q"),
        ("pulseless", {"lam": 0.5, "nbar_over_q": 1e308, "initial": "thermal"}, "nbar_over_q"),
        ("pulsed", {"g": 1e300}, "g"),
        ("pulsed", {"g": 1e300, "nbar_over_q": 1e-3}, "g"),
    ])
    def test_overflowing_scan_raises_naming_the_input(self, mode, kw, key):
        # these scans returned NaN or inf entries, with numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"^violation_scan is not finite on \d of 4 grid points") as exc:
                violation_scan(mode, "t", [0.1, 0.5, 2.0, 3.0], omega=1.0, **kw)
        assert f"{key} = {kw[key]!r}" in str(exc.value)

    def test_overflowing_scan_counts_the_points_and_names_the_first(self):
        # omega g t^2 / 4 squared overflows from t = 2 on
        message = ("violation_scan is not finite on 2 of 4 grid points (first t = 2.0) at lam = 0.0, "
                   "g = 1e+155, omega = 1.0, omega_l = 0.0, tau = 0.0, nbar = 0.0, nbar_over_q = 0.0")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            violation_scan("pulsed", "t", [0.1, 0.5, 2.0, 3.0], g=1e155)

    def test_t_fixed_pulseless(self):
        assert t_fixed_pulseless(2.0) == pytest.approx(math.pi / 2.0)


# ---------------------------------------------------------------------------
# Scalar references: the one-point closed forms and the per-point loops of
# violation_scan and max_nbar_for_violation as written before the grid
# kernels, in Python floats and libm.


def ref_thermal_wb(lam, nbar, omega, omega_l, t):
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    u = 1.0 - math.cos(omega * t)
    e = math.exp(-(2 * nbar + 1) * lam * lam * u)
    return 0.5 + e * math.cos(omega_l * t) * lam * lam * u / (2 * nbar + 1 + 2 * lam * lam * u)


def ref_thermal_wen(lam, nbar, omega, t):
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    u = 1.0 - math.cos(omega * t)
    n1 = 1 + 2 * nbar
    e2 = math.exp(-2 * n1 * lam * lam * u)
    return 0.5 + n1 / (4 * (n1 + 2 * lam * lam * u)) - (e2 / 4) * (1 + 2 * n1 * lam * lam * u)


def ref_bath_witness(lam, nbar, nbar_over_q, omega, omega_l, t, initial="ground"):
    """(W_b, W_en) with the bath: moments, per-point coefficient solves, deltas."""
    nb = 0.0 if initial == "ground" else nbar
    th = omega * t
    u = 1.0 - math.cos(th)
    s = math.sin(th)
    v = (2 * nb + 1) / 2.0
    e = math.exp(-(2 * nb + 1) * lam * lam * u)
    cl = math.cos(omega_l * t)
    sl = math.sin(omega_l * t)
    kappa = 0.5 * math.sqrt(2) * lam * v * e * cl
    var_q = v + lam * lam * u * u / 2
    var_p = v + lam * lam * s * s / 2
    cov_qp = lam * lam * u * s / 2
    cov_syq, cov_syp = kappa * s, -kappa * u
    cov_szq, cov_szp = -math.sqrt(2) * lam * u / 4, -math.sqrt(2) * lam * s / 4
    mat = np.array([[var_q, cov_qp], [cov_qp, var_p]])
    ay, by = (float(x) for x in np.linalg.solve(mat, [-cov_syq, -cov_syp]))
    az, bz = (float(x) for x in np.linalg.solve(mat, [-cov_szq, -cov_szp]))

    def block(var_s, cov_sq, cov_sp, a, b):
        return (var_s + a * a * var_q + b * b * var_p + 2 * a * b * cov_qp
                + 2 * a * cov_sq + 2 * b * cov_sp)

    w = (0.25 - (e * cl) ** 2 / 4
         + block(0.25 - (e * sl) ** 2 / 4, cov_syq, cov_syp, ay, by)
         + block(0.25, cov_szq, cov_szp, az, bz))
    k, r2 = nbar_over_q, math.sqrt(2)
    dvar_sx = 0.5 * lam * lam * k * (6 * th - 8 * math.sin(th) + math.sin(2 * th))
    dq2 = k * (2 * th - math.sin(2 * th))
    dp2 = k * (2 * th + math.sin(2 * th))
    dqp = k * 4 * math.sin(th) ** 2
    dsyq = -8 * r2 * lam * k * math.sin(th / 2) ** 4
    dsyp = 4 * r2 * lam * k * (th / 2 - math.sin(th) + math.sin(2 * th) / 4)
    w_en = w + (dvar_sx + (ay ** 2 + az ** 2) * dq2 + (by ** 2 + bz ** 2) * dp2
                + (ay * by + az * bz) * dqp + ay * dsyq + by * dsyp)
    return 0.5 + abs(ay * bz - az * by), w_en


def ref_scan_point(mode, sweep, x, *, lam, g, omega, omega_l, tau, nbar, nbar_over_q, initial):
    """(W_b, W_en) at one grid value, as the per-point violation_scan loop computed it."""
    if mode == "pulsed":
        lam_eff = omega * g * (x if sweep == "t" else tau) ** 2 / 4.0
        t = math.pi / omega
    else:
        lam_eff = lam
        t = x if sweep == "t" else math.pi / omega
    nb = nbar if sweep == "t" else x
    if nbar_over_q > 0:
        return ref_bath_witness(lam_eff, nb, nbar_over_q, omega, omega_l, t, initial)
    return ref_thermal_wb(lam_eff, nb, omega, omega_l, t), ref_thermal_wen(lam_eff, nb, omega, t)


def ref_max_nbar(g, omega, threshold=1e-3, lam_range=(1e-3, 4.0), n_grid=2000):
    taus = np.sqrt(4 * np.geomspace(lam_range[0], lam_range[1], n_grid) / (omega * g))

    def peak_ratio(nb):
        best = -math.inf
        for tau in taus:
            lam_eff = omega * g * float(tau) * float(tau) / 4.0
            w_b = ref_thermal_wb(lam_eff, nb, omega, 0.0, math.pi / omega)
            w_en = ref_thermal_wen(lam_eff, nb, omega, math.pi / omega)
            best = max(best, (w_b - w_en) / w_b)
        return best

    lo, hi = 0.0, 1.0
    while peak_ratio(hi) >= threshold:
        lo, hi = hi, hi * 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if peak_ratio(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


GRID_TOL = 1e-13  # numpy's exp differs from libm's in the last bit


class TestGridKernels:
    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(0.0, 3.0), nbar=st.floats(0.0, 10.0), noq=st.floats(1e-4, 0.1),
           omega=st.sampled_from([1.0, 2 * math.pi * 100]), wl=st.floats(0.0, 3.0),
           wt=st.floats(0.0, 30.0), initial=st.sampled_from(["ground", "thermal"]))
    def test_one_point_views_equal_reference(self, lam, nbar, noq, omega, wl, wt, initial):
        # evaluated with math, the public one-point functions keep every bit
        t = wt / omega
        omega_l = wl * omega
        assert thermal_wb(lam, nbar, omega, omega_l, t) == ref_thermal_wb(lam, nbar, omega, omega_l, t)
        assert thermal_wen(lam, nbar, omega, t) == ref_thermal_wen(lam, nbar, omega, t)
        r = bath_witness(lam, nbar, noq, omega, omega_l, t, initial)
        assert (r.w_b, r.w_en) == ref_bath_witness(lam, nbar, noq, omega, omega_l, t, initial)

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["pulseless", "pulsed"]), sweep=st.sampled_from(["t", "nbar"]),
           noq=st.sampled_from([0.0, 1e-4, 3e-3, 0.05]),
           initial=st.sampled_from(["ground", "thermal"]),
           lam=st.floats(0.0, 2.0), g_over_omega=st.floats(0.0, 3.0),
           omega=st.sampled_from([1.0, 2 * math.pi * 100]), wl=st.floats(0.0, 3.0),
           w_tau=st.floats(0.01, 4.0), nbar=st.floats(0.0, 5.0),
           lo=st.floats(0.0, 10.0), span=st.floats(1e-3, 20.0), n=st.integers(1, 40))
    def test_scan_matches_per_point_reference(self, mode, sweep, noq, initial, lam, g_over_omega,
                                              omega, wl, w_tau, nbar, lo, span, n):
        scale = 1 / omega if sweep == "t" else 1.0  # t grids in units of 1/omega
        grid = [float(x) for x in np.linspace(lo * scale, (lo + span) * scale, n)]
        assume(all(b > a for a, b in zip(grid, grid[1:])))
        kw = dict(lam=lam, g=g_over_omega * omega, omega=omega, omega_l=wl * omega,
                  tau=w_tau / omega, nbar=nbar, nbar_over_q=noq, initial=initial)
        res = violation_scan(mode, sweep, grid, **kw)
        assert [p.sweep_value for p in res.points] == grid
        for p in res.points:
            w_b, w_en = ref_scan_point(mode, sweep, p.sweep_value, **kw)
            assert p.w_b == pytest.approx(w_b, rel=GRID_TOL, abs=0)
            assert p.w_en == pytest.approx(w_en, rel=GRID_TOL, abs=0)
            # absolute near the zero crossing, relative where |w_ratio| > 1
            assert p.w_ratio == pytest.approx((w_b - w_en) / w_b, rel=GRID_TOL, abs=GRID_TOL)
            assert p.log10_w_ratio == (math.log10(p.w_ratio) if p.w_ratio > 0 else -math.inf)

    @pytest.mark.parametrize("mode,sweep,noq", [
        ("pulseless", "t", 0.0), ("pulsed", "t", 1e-3), ("pulseless", "nbar", 1e-3),
        ("pulsed", "nbar", 0.0),
    ])
    def test_scan_points_are_python_floats(self, mode, sweep, noq):
        grid = np.linspace(0.1, 2.0, 7)  # numpy floats in, Python floats out
        res = violation_scan(mode, sweep, grid, lam=0.5, g=1.0, omega=1.0, tau=0.5,
                             nbar_over_q=noq, initial="thermal")
        for p in res.points:
            for v in (p.sweep_value, p.w_b, p.w_en, p.w_ratio, p.log10_w_ratio):
                assert type(v) is float

    @pytest.mark.parametrize("omega", [1.0, 2 * math.pi * 100, 2 * math.pi * 1e4])
    def test_max_nbar_matches_reference_bisection(self, omega):
        # the full g/omega grid on a 250-point tau grid, one default 2000-point call
        for r in np.geomspace(0.05, 5, 15):
            got = witness.max_nbar_for_violation(r * omega, omega, n_grid=250)
            assert got == pytest.approx(ref_max_nbar(r * omega, omega, n_grid=250), rel=GRID_TOL)
        got = witness.max_nbar_for_violation(omega, omega)
        assert got == pytest.approx(ref_max_nbar(omega, omega), rel=GRID_TOL)

    def test_max_nbar_unbounded_violation_raises(self):
        with pytest.raises(ValueError, match="unphysically large"):
            witness.max_nbar_for_violation(1.0, 1.0, threshold=-1.0)

    @pytest.mark.parametrize("threshold", [0.5, 0.9, 5.0])
    def test_max_nbar_threshold_above_the_ground_state_peak_raises(self, threshold):
        # the peak ratio at nbar = 0 is 0.3272 for every g and omega; above it no nbar
        # qualifies, and the bisection once returned its lower end, ~4e-19
        with pytest.raises(ValueError, match=rf"threshold = {threshold!r}.*0\.3272.*g = 1\.0, omega = 1\.0"):
            witness.max_nbar_for_violation(1.0, 1.0, threshold=threshold)
        assert witness.max_nbar_for_violation(1.0, 1.0, threshold=0.3) > 0.01

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("arg", ["g", "omega"])
    def test_max_nbar_rejects_nonpositive_or_non_finite(self, arg, bad):
        # g = 0 once gave tau = inf, a NaN lam_eff and a bisection walked to ~0
        kwargs = {"g": 1.0, "omega": 1.0, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be finite and > 0"):
            witness.max_nbar_for_violation(**kwargs)

    def test_degenerate_grid_point_raises(self):
        grid = witness._moments(0.5, 1.0, 1.0, 0.0, np.array([0.5, 1.0, 2.0]))
        ok = witness._coefficients(grid)
        assert np.shape(ok.a_y) == (3,)
        singular = dataclasses.replace(grid, var_q=np.array([0.6, 0.0, 0.7]),
                                       var_p=np.array([0.6, 0.0, 0.7]),
                                       cov_qp=np.array([0.0, 0.0, 0.0]))
        with pytest.raises(DegenerateMomentsError):
            witness._coefficients(singular)


def _rotated_block(hi, lo, angle):
    """(var_q, cov_qp, var_p) of the 2x2 block with eigenvalues hi and lo, rotated by angle."""
    c, s = math.cos(angle), math.sin(angle)
    return hi * c * c + lo * s * s, (hi - lo) * c * s, hi * s * s + lo * c * c


def _with_blocks(blocks):
    """Grid moments whose quadrature covariance blocks are the given (var_q, cov_qp, var_p)."""
    grid = witness._moments(0.5, 1.0, 1.0, 0.0, np.linspace(0.5, 2.0, len(blocks)))
    var_q, cov_qp, var_p = (np.array(x) for x in zip(*blocks))
    return dataclasses.replace(grid, var_q=var_q, cov_qp=cov_qp, var_p=var_p)


class TestSingularBlocks:
    """_coefficients decides singularity from the closed-form eigenvalues of each
    2x2 block; np.linalg.eigh, which decided it before, agrees on either side
    of the 1e-14 threshold."""

    @pytest.mark.parametrize("hi", [0.5, 1.0, 7.0, 1e6])
    @pytest.mark.parametrize("factor", [0.8, 1.25])  # just below and just above the threshold
    def test_decision_matches_eigh(self, hi, factor):
        lo = factor * 1e-14 * max(1.0, hi)
        for angle in np.linspace(0.0, math.pi, 7).tolist():
            block = _rotated_block(hi, lo, angle)
            evals = np.linalg.eigh(np.array([block[:2], block[1:]]))[0]
            by_eigh = bool(evals[0] <= 1e-14 * max(1.0, evals[-1]))
            assert by_eigh == (factor < 1.0)
            m = _with_blocks([_rotated_block(1.0, 0.5, 0.3), block])
            if by_eigh:
                with pytest.raises(DegenerateMomentsError):
                    witness._coefficients(m)
            else:
                assert np.isfinite(witness._coefficients(m).a_y).all()

    @pytest.mark.parametrize("blocks,direction", [
        ([(0.6, 0.0, 0.7), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)], "(-0.7071 q, +0.7071 p)"),
        ([(0.6, 0.0, 0.7), (0.0, 0.0, 0.0), (3.0, -1.0, 1 / 3)], "(+1.0000 q, +0.0000 p)"),
        ([(0.6, 0.0, 0.7), (0.6, 0.0, 0.6), (3.0, -1.0, 1 / 3)], "(-0.3162 q, -0.9487 p)"),
    ])
    def test_message_names_the_first_singular_block(self, blocks, direction):
        # the texts the stacked eigh of every block gave
        with pytest.raises(DegenerateMomentsError) as err:
            witness._coefficients(_with_blocks(blocks))
        assert str(err.value) == f"quadrature covariance is singular along direction {direction}"


# ---------------------------------------------------------------------------
# Landmarks: the index searches on the w_ratio array against the scalar
# loops over ScanPoint records that they replaced.


def ref_asymptote(points):
    seen_positive = False
    for p in points:
        if p.w_ratio > 0:
            seen_positive = True
        elif seen_positive:
            return p.sweep_value
    return None


def ref_first_crossing(points, level):
    for p0, p1 in zip(points, points[1:]):
        if p0.w_ratio > level >= p1.w_ratio:
            frac = (p0.w_ratio - level) / (p0.w_ratio - p1.w_ratio)
            return p0.sweep_value + frac * (p1.sweep_value - p0.sweep_value)
    return None


RATIOS = st.one_of(
    st.sampled_from([1e-3, 0.0, -0.0, -1e-3, 2e-3, math.nextafter(1e-3, 1), math.nan, 5e-324]),
    st.floats(-1.0, 1.0),
)
RATIO_LISTS = st.one_of(
    st.lists(RATIOS, min_size=1, max_size=30),
    st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=30),  # all positive
    st.lists(st.floats(max_value=0.0), min_size=1, max_size=30),  # all nonpositive
)


class TestScanLandmarks:
    @settings(max_examples=500, deadline=None)
    @given(ratios=RATIO_LISTS, start=st.floats(-10.0, 10.0), data=st.data())
    def test_index_search_equals_scalar_loop(self, ratios, start, data):
        steps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(ratios), max_size=len(ratios)))
        x = start + np.cumsum(steps)
        assume(np.all(np.diff(x) > 0))
        ratio = np.array(ratios)
        points = [witness.ScanPoint(xv, 1.0, 1.0, r, 0.0) for xv, r in zip(x.tolist(), ratios)]
        assert witness._asymptote(x, ratio > 0) == ref_asymptote(points)
        got = witness._first_crossing(x, ratio, witness.RATIO_THRESHOLD)
        ref = ref_first_crossing(points, witness.RATIO_THRESHOLD)
        assert got == ref
        assert got is None or type(got) is float

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(["pulseless", "pulsed"]), sweep=st.sampled_from(["t", "nbar"]),
           noq=st.sampled_from([0.0, 3e-3, 0.05]), initial=st.sampled_from(["ground", "thermal"]),
           lam=st.floats(0.0, 2.0), g_over_omega=st.floats(0.0, 3.0), w_tau=st.floats(0.01, 4.0),
           nbar=st.floats(0.0, 5.0), lo=st.floats(0.0, 10.0), span=st.floats(1e-3, 20.0),
           n=st.integers(1, 60))
    def test_scan_landmarks_equal_scalar_loop(self, mode, sweep, noq, initial, lam, g_over_omega,
                                              w_tau, nbar, lo, span, n):
        # n = 1 gives one-point grids; noq > 0 with "ground" gives constant nbar sweeps
        grid = np.linspace(lo, lo + span, n)
        assume(np.all(np.diff(grid) > 0))
        res = violation_scan(mode, sweep, grid, lam=lam, g=g_over_omega, omega=1.0,
                             tau=w_tau, nbar=nbar, nbar_over_q=noq, initial=initial)
        points = res.points
        assert res.tau_asymp == ref_asymptote(points)
        star = ref_first_crossing(points, witness.RATIO_THRESHOLD)
        assert (res.tau_star, res.max_nbar) == ((star, None) if sweep == "t" else (None, star))

    @pytest.mark.parametrize("sweep,noq,initial", [("t", 0.0, "ground"), ("nbar", 1e-3, "ground"),
                                                   ("nbar", 1e-3, "thermal")])
    def test_points_are_python_floats_equal_to_arrays(self, sweep, noq, initial):
        res = violation_scan("pulseless", sweep, np.linspace(0.0, 4.0, 40), lam=0.5,
                             nbar_over_q=noq, initial=initial)
        points = res.points
        assert isinstance(points, tuple) and len(points) == 40
        for field in ("sweep_value", "w_b", "w_en", "w_ratio", "log10_w_ratio"):
            arr = getattr(res, field)
            assert arr.dtype == np.float64 and arr.shape == (40,) and not arr.flags.writeable
            vals = [getattr(p, field) for p in points]
            assert all(type(v) is float for v in vals)
            assert vals == arr.tolist()

    def test_one_point_ground_nbar_sweep(self):
        # the ground-start bath kernel does not depend on nbar: one value for the grid
        res = violation_scan("pulseless", "nbar", [2.0], lam=0.5, nbar_over_q=1e-3)
        assert res.sweep_value.tolist() == [2.0] and res.w_b.shape == (1,)
        assert res.tau_asymp is None and res.max_nbar is None

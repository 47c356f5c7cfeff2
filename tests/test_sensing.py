"""Noise budgets, SQL solvers, anchor sensitivities, squeezed readout."""

import dataclasses
import decimal
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinlev import pulses, sensing
from spinlev.constants import GAMMA_E_DEFAULT, HBAR, KB
from spinlev.pulses import SequenceKind, carr_purcell2, custom, hahn_echo, ramsey
from spinlev.sensing import (
    UnboundedCouplingError,
    cooling_factor,
    force_sensitivity,
    force_sql,
    noise_to_signal,
    optimal_coupling,
    projection_limit_eta,
    sensitivity_spectrum,
    sql_gradient,
    squeezed_rotation,
    thermal_limit_eta,
    thermal_phase_variance,
)
from spinlev.units import (REFERENCE_DEVICE, ParameterError, PhysicalParams, nbar_from_temperature, oscillator_length,
                           params_from_dict, to_natural)
from spinlev.witness import bath_deltas

KINDS = [SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2]


class TestCoolingFactor:
    def test_ln2_gives_unity(self):
        assert cooling_factor(math.log(2), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_strong_cooling_limit(self):
        assert cooling_factor(1e3, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_reference_value(self):
        assert cooling_factor(1e3, 100e-6) == pytest.approx(
            math.exp(-0.1) / (1 - math.exp(-0.1)), rel=1e-14)

    def test_zero_product_raises(self):
        with pytest.raises(ValueError):
            cooling_factor(0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("name", ["gamma_c", "t_c"])
    def test_argument_outside_domain_rejected_by_name(self, name, bad):
        # only the product was tested: NaN returned nan
        args = {"gamma_c": 1e3, "t_c": 1e-4, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
            cooling_factor(**args)

    def test_two_negatives_rejected(self):
        # their product is positive, and xi came back as 9.5
        with pytest.raises(ValueError, match="^gamma_c must be finite and > 0"):
            cooling_factor(-1e3, -1e-4)

    @given(x=st.floats(0.01, 10.0), scale=st.floats(1.01, 5.0))
    def test_monotone_decreasing(self, x, scale):
        assert cooling_factor(scale * x, 1.0) < cooling_factor(x, 1.0)


class TestNoiseToSignal:
    def test_projection_only(self):
        assert noise_to_signal(2.0, 0.0, 1.0, 4.0, 0.0) == pytest.approx(
            1 / (4 * 4.0 * 4.0), rel=1e-14)

    def test_single_spin_decomposition(self):
        phi, dn, xi = 0.5, 0.3, 2.0
        assert noise_to_signal(phi, dn, xi, 1.0, 0.0) == pytest.approx(
            (0.25 + dn**2 * xi) / phi**2, rel=1e-14)

    @pytest.mark.parametrize("delta_n,xi,thermal_var", [(1e200, 1.0, 0.0), (1e154, 1e300, 0.0),
                                                        (math.inf, 1.0, 0.0), (0.3, math.nan, 0.0),
                                                        (0.3, 1.0, math.inf)])
    def test_non_finite_numerator_rejected_naming_inputs(self, delta_n, xi, thermal_var):
        # 1e200 raised OverflowError from the float delta_n ** 2; the others returned inf or nan
        with pytest.raises(ValueError, match=r"^noise numerator is not finite at delta_n = .*, xi = .*, "
                                             r"n_spins = 1\.0, thermal_var = "):
            noise_to_signal(1.0, delta_n, xi, 1.0, thermal_var)

    @pytest.mark.parametrize("phi,dn,xi,n,v", [(0.5, 0.3, 2.0, 1.0, 0.0), (3.7e-7, 1e150, 1e-10, 3.0, 1e-3),
                                               (2.0, 0.1, 0.25, 1e6, 0.7)])
    def test_finite_numerator_keeps_its_bits(self, phi, dn, xi, n, v):
        assert noise_to_signal(phi, dn, xi, n, v) == (1.0 / (4 * n) + n * dn ** 2 * xi + v) / np.square(phi)

    @pytest.mark.parametrize("phi", [0.0, 1e-200])
    def test_zero_phase_is_infinite(self, phi):
        # phi^2 underflows to 0 at 1e-200, where the scalar path raised ZeroDivisionError
        assert math.isinf(noise_to_signal(phi, 0.1, 1.0, 1.0, 0.0))

    def test_balance_at_optimal_coupling(self):
        omega, tau, xi, n = 1.0, 0.31, 0.8, 7.0
        for kind in KINDS:
            gstar = optimal_coupling(kind, omega, tau, xi, n)
            dn = pulses.delta_n_closed_form(kind, gstar, omega, tau)
            assert n * dn**2 * xi == pytest.approx(1 / (4 * n), rel=1e-9)

    def test_unbounded_coupling(self):
        with pytest.raises(UnboundedCouplingError):
            optimal_coupling(SequenceKind.RAMSEY, 1.0, 2 * math.pi, 0.25)

    def test_optimal_coupling_n_scaling(self):
        g1 = optimal_coupling(SequenceKind.HAHN_ECHO, 1.0, 0.3, 0.25, 1.0)
        g2 = optimal_coupling(SequenceKind.HAHN_ECHO, 1.0, 0.3, 0.25, 2.0)
        assert g2 == pytest.approx(g1 / math.sqrt(2), rel=1e-12)


class TestThermalDephasing:
    def test_zero_bath(self):
        assert bath_deltas(0.5, 0.0, 1.0, 1.0).dvar_sx == 0.0

    def test_full_period(self):
        lam, noq = 0.4, 0.2
        assert bath_deltas(lam, noq, 1.0, 2 * math.pi).dvar_sx == pytest.approx(
            0.5 * lam**2 * noq * 12 * math.pi, rel=1e-12)

    def test_linearity(self):
        a = bath_deltas(0.4, 1.0, 1.0, 0.9).dvar_sx
        b = bath_deltas(0.4, 1e4, 1.0, 0.9).dvar_sx
        assert b == pytest.approx(1e4 * a, rel=1e-12)

    def test_kernel_route_quarter_relation_for_ramsey(self):
        # 2 omega (nbar/Q) int K^2 ds equals a quarter of the variance formula
        g, omega, tau, noq = 0.7, 1.3, 2.2, 0.05
        lam = 2 * g / omega
        v_kernel = thermal_phase_variance(ramsey(tau), g, omega, noq)
        assert v_kernel == pytest.approx(
            bath_deltas(lam, noq, omega, tau).dvar_sx / 4, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_bath_rejected(self, bad):
        # NaN failed the sign test and returned nan, inf returned inf
        with pytest.raises(ValueError, match=f"^nbar_over_q must be finite and >= 0, got {bad!r}$"):
            thermal_phase_variance(hahn_echo(1.0), 0.5, 1.0, bad)


class TestForceSql:
    def test_g_free_and_xi_scaling(self):
        omega, tau = 1.0, 0.2
        val = force_sql(SequenceKind.CARR_PURCELL2, omega, tau, 1.0)
        assert force_sql(SequenceKind.CARR_PURCELL2, omega, tau, 16.0) == pytest.approx(
            2 * val, rel=1e-12)

    def test_cp_outperforms_ramsey_at_small_omega_tau(self):
        omega, tau = 1.0, 0.1
        assert force_sql(SequenceKind.CARR_PURCELL2, omega, tau, 1.0) < force_sql(
            SequenceKind.RAMSEY, omega, tau, 1.0)

    def test_table_scalings(self):
        # leading-order SQL proportional to the Table column (6/(w t^2), 2/t, w)
        omega = 1.0
        for kind, scale in [
            (SequenceKind.RAMSEY, lambda t: 6 / (omega * t**2)),
            (SequenceKind.HAHN_ECHO, lambda t: 2 / t),
            (SequenceKind.CARR_PURCELL2, lambda t: omega),
        ]:
            r = [force_sql(kind, omega, t, 1.0) / scale(t) for t in (0.02, 0.01)]
            assert r[0] == pytest.approx(r[1], rel=1e-3)


class TestAnchors:
    def test_projection_limit_value_and_scaling(self):
        eta = projection_limit_eta(1e-12, 2 * math.pi * 1e6, 1e4, 1e-6,
                                   GAMMA_E_DEFAULT)
        # within a factor 2 of the quoted 5e-11 N/sqrt(Hz)
        assert 2.5e-11 < eta < 1e-10
        assert projection_limit_eta(1e-12, 2 * math.pi * 1e6, 2e4, 1e-6,
                                    GAMMA_E_DEFAULT) == pytest.approx(
            eta / 2, rel=1e-12)

    def test_thermal_limit(self):
        assert thermal_limit_eta(1e-14, 2 * math.pi * 100, 1e6, 0.0) == 0.0
        a = thermal_limit_eta(1e-14, 2 * math.pi * 100, 1e6, 300.0)
        b = thermal_limit_eta(1e-14, 2 * math.pi * 100, 4e6, 300.0)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_sql_gradient_scalings(self):
        args = dict(mass=1.8e-15, t_between=300e-6, tau_precess=300e-6,
                    gamma_e=GAMMA_E_DEFAULT)
        base = sql_gradient(n_spins=1, **args)
        assert sql_gradient(n_spins=100, **args) == pytest.approx(base / 10, rel=1e-12)
        quad_t = sql_gradient(n_spins=1, **{**args, "t_between": 4 * 300e-6})
        assert quad_t == pytest.approx(base / 2, rel=1e-12)

    @pytest.mark.parametrize("name,bad", [("gradient", 0.0), ("gradient", -1e4), ("mass", math.nan),
                                          ("omega", math.inf), ("t2_star", 0.0), ("gamma_e", -1.0)])
    def test_projection_limit_rejects_each_argument_by_name(self, name, bad):
        # gradient = 0 raised ZeroDivisionError
        args = dict(mass=1e-12, omega=2 * math.pi * 1e6, gradient=1e4, t2_star=1e-6, gamma_e=GAMMA_E_DEFAULT)
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
            projection_limit_eta(**{**args, name: bad})

    @pytest.mark.parametrize("name,bad", [("temperature", math.nan), ("temperature", -1.0),
                                          ("temperature", math.inf), ("mass", 0.0), ("q_factor", math.nan)])
    def test_thermal_limit_rejects_each_argument_by_name(self, name, bad):
        # temperature = nan returned nan
        args = dict(mass=1e-14, omega=2 * math.pi * 100, q_factor=1e6, temperature=300.0)
        bound = ">= 0" if name == "temperature" else "> 0"
        with pytest.raises(ValueError, match=f"^{name} must be finite and {bound}, got {bad!r}$"):
            thermal_limit_eta(**{**args, name: bad})

    @pytest.mark.parametrize("name,bad", [("mass", 0.0), ("tau_precess", 0.0), ("t_between", 0.0),
                                          ("n_spins", math.nan), ("gamma_e", math.inf)])
    def test_sql_gradient_rejects_each_argument_by_name(self, name, bad):
        # mass = 0 and tau_precess = 0 raised ZeroDivisionError
        args = dict(mass=1.8e-15, t_between=300e-6, tau_precess=300e-6, n_spins=1.0, gamma_e=GAMMA_E_DEFAULT)
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
            sql_gradient(**{**args, name: bad})

    def test_overflowing_projection_limit_names_the_inputs(self):
        # omega ** 2 raised OverflowError
        with pytest.raises(ParameterError, match=re.escape(
                "projection_limit_eta leaves the float range at mass = 1.0, omega = 1e+200, "
                "gradient = 1.0, t2_star = 1.0, gamma_e = 1.0")):
            projection_limit_eta(1.0, 1e200, 1.0, 1.0, 1.0)

    def test_overflowing_thermal_limit_names_the_inputs(self):
        # returned inf
        with pytest.raises(ParameterError, match=re.escape(
                "thermal_limit_eta leaves the float range at mass = 1e+300, omega = 1e+300, "
                "q_factor = 1e-300, temperature = 1e+300")):
            thermal_limit_eta(1e300, 1e300, 1e-300, 1e300)

    def test_overflowing_sql_gradient_names_the_inputs(self):
        # the denominator underflowed to 0: ZeroDivisionError
        with pytest.raises(ParameterError, match=re.escape(
                "sql_gradient leaves the float range at mass = 1e-300, t_between = 1e-300, "
                "tau_precess = 1e-300, n_spins = 1e-300, gamma_e = 1e-300")):
            sql_gradient(1e-300, 1e-300, 1e-300, 1e-300, 1e-300)

    @pytest.mark.parametrize("call", [
        lambda: projection_limit_eta(1e-300, 1e-200, 1.0, 1.0, 1.0),
        lambda: thermal_limit_eta(1e-300, 1e-300, 1e300, 1e-300),
        lambda: sql_gradient(1e300, 1e-300, 1e300, 1e300, 1e300),
    ], ids=["projection", "thermal", "sql_gradient"])
    def test_underflowing_limit_rejected(self, call):
        # each true value is > 0 and below the float range; 0.0 came back
        with pytest.raises(ParameterError, match="leaves the float range"):
            call()

    def test_subnormal_products_keep_their_digits(self):
        # 2 m w^2 and gamma_e dB are subnormal: 20000222658.8 came back, 1.1e-5 off
        assert projection_limit_eta(1e-310, 1.0, 1e-160, 1.0, 1e-160) == pytest.approx(2e10, rel=1e-12)

    def test_underflowing_products_keep_an_in_range_result(self):
        # 4 m (w/Q) k_B and gamma_e tau underflowed to 0, and both raised
        # "leaves the float range" for a result well inside it
        d = decimal.Context(prec=40)
        thermal = (4 * d.create_decimal(1e-310) * d.create_decimal(KB) * 10 ** 10).sqrt(d)
        assert thermal_limit_eta(1e-310, 1.0, 1.0, 1e10) == pytest.approx(float(thermal), rel=1e-14)
        spread = d.create_decimal(HBAR) * 10 ** 10 / d.create_decimal(1e-300)  # dx_SQL^2
        sql = 1 / (d.create_decimal(1e-200) ** 2 * spread.sqrt(d))
        assert sql_gradient(1e-300, 1e10, 1e-200, 1.0, 1e-200) == pytest.approx(float(sql), rel=1e-14)

    def test_subnormal_spin_product_keeps_its_digits(self):
        # gamma_e tau sqrt(N_s) = 1e-315 is subnormal: the result came back 1.5e-9 off
        d = decimal.Context(prec=40)
        spread = d.create_decimal(HBAR) * 10 ** 100 / d.create_decimal(1e-234)  # dx_SQL^2
        sql = 1 / (d.create_decimal(1e-150) ** 2 * d.create_decimal(1e-30).sqrt(d) * spread.sqrt(d))
        assert sql_gradient(1e-234, 1e100, 1e-150, 1e-30, 1e-150) == pytest.approx(float(sql), rel=1e-14)


def _exact_formula(name, args):
    """The 40-digit value of a range-sensitive formula at float args."""
    D = decimal.Decimal
    hbar, kb = D(HBAR), D(KB)
    with decimal.localcontext(decimal.Context(prec=40)):
        a = [D(x) for x in args]
        if name == "nbar_from_temperature":
            t, w = a
            x = hbar * w / (kb * t)
            if x > 100000:  # the occupation is below 1e-43000
                return D(0)
            return 1 / (x * (1 + x / 2 + x * x / 6 + x ** 3 / 24) if x < D("1e-5") else x.exp() - 1)
        if name == "oscillator_length":
            m, w = a
            return (hbar / (2 * m * w)).sqrt()
        if name == "projection_limit_eta":
            m, w, db, t2, ge = a
            return 2 * m * w * w / (ge * db * t2.sqrt())
        if name == "thermal_limit_eta":
            m, w, q, t = a
            return (4 * m * w / q * kb * t).sqrt()
        m, t, tau, n, ge = a
        return (m / (hbar * t)).sqrt() / (ge * tau * n.sqrt())


_FORMULAS = {"nbar_from_temperature": (nbar_from_temperature, 2), "oscillator_length": (oscillator_length, 2),
             "projection_limit_eta": (projection_limit_eta, 5), "thermal_limit_eta": (thermal_limit_eta, 4),
             "sql_gradient": (sql_gradient, 5)}
_SMALLEST = 2.0 ** -1074  # one ulp of the subnormals
_DECADES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_NEAR_ONE = st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)


class TestFormulasOverTheFloatRange:
    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(sorted(_FORMULAS)), st.lists(_DECADES, min_size=5, max_size=5))
    # intermediates past the range raised although the result is in range
    @example("projection_limit_eta", [1e300, 1e10, 1e300, 1.0, 1e10])
    @example("sql_gradient", [1e-300, 1e300, 1e-100, 1e300, 1e-100])
    @example("oscillator_length", [1e-300, 1e-300])
    @example("oscillator_length", [1e300, 2 * math.pi * 100])
    @example("sql_gradient", [1e300, 1e-280, 1e200, 1.0, 1e-200])  # a ratio overflowed
    @example("projection_limit_eta", [1e300, 1e-160, 1e-300, 1.0, 1e10])  # a subnormal omega^2, 1.1e-5 off
    def test_matches_40_digits_or_raises_naming_the_inputs(self, name, args):
        # within 1e-15 relative (for nbar times the condition number of
        # 1/expm1(x), below 1 + x) or one subnormal ulp, whichever is more, and a
        # ParameterError naming the inputs where the value rounds past the range
        # (or, below it, to 0, except for nbar, which is 0 there)
        function, arity = _FORMULAS[name]
        args = args[:arity]
        exact = _exact_formula(name, args)
        tol = 1e-15
        if name == "nbar_from_temperature":  # x = hbar omega / k_b T, capped where nbar is 0
            tol *= min(max(1.0, HBAR / KB * (args[1] / args[0])), 1e6)
        big = decimal.Decimal(sys.float_info.max)
        try:
            got = function(*args)
        except ParameterError as exc:
            assert exact > big * (1 - decimal.Decimal(tol)) or exact < _SMALLEST, (exact, exc)
            assert all(repr(a) in str(exc) for a in args), str(exc)
            return
        assert exact < big * (1 + decimal.Decimal(tol)), got
        assert abs(decimal.Decimal(got) - exact) <= max(decimal.Decimal(tol) * exact, decimal.Decimal(_SMALLEST))

    @given(st.sampled_from(["projection_limit_eta", "thermal_limit_eta", "sql_gradient"]),
           st.lists(_NEAR_ONE, min_size=5, max_size=5))
    def test_bits_unchanged_where_no_product_underflows(self, name, args):
        m, a, b, c, d = args
        plain = {"projection_limit_eta": lambda: 2 * m * (a * a) / (d * b * math.sqrt(c)),
                 "thermal_limit_eta": lambda: math.sqrt(4 * m * (a / b) * KB * c),
                 "sql_gradient": lambda: 1.0 / (d * b * math.sqrt(c) * math.sqrt(HBAR * a / m))}[name]
        function, arity = _FORMULAS[name]
        assert function(*args[:arity]) == plain()


class TestForceSensitivity:
    def params(self, **kw):
        d = dict(mass=1.5e-14, trap_frequency=2 * math.pi * 100, gradient=1e6,
                 quality_factor=1e6, nbar=0.0, cooling_rate=1e3,
                 cooling_time=100e-6)
        d.update(kw)
        return PhysicalParams(**d)

    def test_positive_and_symmetric(self):
        p = self.params()
        seq = carr_purcell2(100e-6)
        for nu in (0.0, 2 * math.pi * 50, 2 * math.pi * 5e3):
            pt_plus = force_sensitivity(p, seq, nu)
            pt_minus = force_sensitivity(p, seq, -nu)
            assert pt_plus.eta > 0
            assert pt_minus.eta == pytest.approx(pt_plus.eta, rel=1e-12)

    def test_thermal_term_monotone_in_bath(self):
        seq = ramsey(100e-6)
        nu = 2 * math.pi * 10.0
        etas = [force_sensitivity(self.params(nbar=nb), seq, nu).eta
                for nb in (0.0, 1e4, 1e6)]
        assert etas[0] < etas[1] < etas[2]

    def test_explicit_coupling_budget(self):
        p = self.params()
        seq = hahn_echo(100e-6)
        pt = force_sensitivity(p, seq, 0.0, coupling=1.0)
        assert pt.budget.projection_var == pytest.approx(0.25, rel=1e-12)
        assert pt.budget.backaction_var >= 0
        assert pt.budget.thermal_var == 0.0


class TestSqueezedRotation:
    def test_zero_squeezing(self):
        theta, factor = squeezed_rotation(100, 0.0)
        assert factor == 1.0
        assert theta == pytest.approx(-math.pi / 2, rel=1e-14)

    def test_kappa_four(self):
        _, factor = squeezed_rotation(4, 1.0)
        assert factor == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_rotation_angle(self):
        n, zeta = 100.0, 0.01
        kappa = n * zeta
        theta, _ = squeezed_rotation(n, zeta)
        assert theta == pytest.approx(-math.atan(4 / kappa + kappa / 2), rel=1e-12)

    @given(n=st.floats(1, 1e6), zeta=st.floats(1e-8, 1e-3))
    def test_factor_at_most_one(self, n, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, factor = squeezed_rotation(n, zeta)
        assert factor <= 1.0
        if n * zeta >= 1e-6:  # below this (kappa/4)^2 is lost to rounding
            assert factor < 1.0
        _, f0 = squeezed_rotation(n, 0.0)
        assert f0 == 1.0

    def test_validity_warning(self):
        with pytest.warns(UserWarning):
            squeezed_rotation(4, 10.0)

    def test_large_kappa_factor_in_range(self):
        # (kappa/4)^2 raised OverflowError; the factor 1/sqrt(1 + (kappa/4)^2) is 4/kappa there
        with pytest.warns(UserWarning):
            theta, factor = squeezed_rotation(1.0, 1e200)
        assert (theta, factor) == (-math.pi / 2, 4e-200)

    def test_overflowing_kappa_names_the_inputs(self):
        # kappa = inf gave factor 0.0
        with pytest.raises(ParameterError, match=re.escape(
                "kappa = N_s zeta overflows at n_spins = 1e+300, zeta = 1e+300")):
            squeezed_rotation(1e300, 1e300)

    @pytest.mark.parametrize("n_spins,zeta,message", [
        (math.nan, 1.0, "n_spins must be finite and > 0, got nan"),
        (0.0, 1.0, "n_spins must be finite and > 0, got 0.0"),
        (4.0, math.nan, "zeta must be finite and >= 0, got nan"),
        (4.0, -math.inf, "zeta must be finite and >= 0, got -inf"),
    ])
    def test_rejects_each_argument_by_name(self, n_spins, zeta, message):
        # squeezed_rotation(nan, 1.0) returned (nan, nan)
        with pytest.raises(ValueError, match=f"^{message}$"):
            squeezed_rotation(n_spins, zeta)


def _pointwise_point(params, seq, nu, coupling=None):
    """eta(nu) and its budget composed per point from the public functionals."""
    nat = to_natural(params)
    omega = nat.omega
    xi = cooling_factor(params.cooling_rate, params.cooling_time)
    if coupling is None:
        a = pulses.residual_displacement(seq, 1.0, omega)[1]
        g = 1.0 / math.sqrt(2.0 * params.n_spins * a * math.sqrt(xi))
    else:
        g = coupling
    delta_n = pulses.residual_displacement(seq, g, omega)[1]
    phi = abs(pulses.spectral_response(seq, g, omega, nu))
    noq = nat.nbar / params.quality_factor
    v_th = thermal_phase_variance(seq, g, omega, noq)
    nsr = noise_to_signal(phi, delta_n, xi, params.n_spins, v_th)
    eta = math.sqrt(nsr * (seq.total_time + params.cooling_time)) * HBAR / nat.x0
    return eta, (1.0 / (4 * params.n_spins), params.n_spins * delta_n ** 2 * xi, v_th, phi)


class TestSensitivitySweep:
    REF = params_from_dict(REFERENCE_DEVICE)
    SEQS = [ramsey(1e-4), hahn_echo(1e-4), carr_purcell2(1e-4),
            custom(1e-4, [1e-5, 3.5e-5, 6e-5, 8e-5])]
    SEQ_IDS = ["ramsey", "hahn_echo", "carr_purcell2", "custom"]
    NUS = [0.0, -2 * math.pi * 50.0] + [2 * math.pi * float(f) for f in np.geomspace(1.0, 1e5, 25)]

    def test_refocused_ramsey_is_unbounded(self):
        # omega tau = 2 pi: Dn/g^2 vanishes up to rounding of sin
        p = self.REF
        xi = cooling_factor(p.cooling_rate, p.cooling_time)
        with pytest.raises(UnboundedCouplingError):
            optimal_coupling(SequenceKind.RAMSEY, p.trap_frequency, 0.01, xi)
        with pytest.raises(UnboundedCouplingError):
            force_sensitivity(p, ramsey(0.01), 2 * math.pi * 1e3)
        with pytest.raises(UnboundedCouplingError):
            sensitivity_spectrum(p, ramsey(0.01), [2 * math.pi * 1e3])

    @pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
    def test_sweep_equals_pointwise(self, seq):
        sweep = sensitivity_spectrum(self.REF, seq, self.NUS).points
        assert sweep == [force_sensitivity(self.REF, seq, nu) for nu in self.NUS]
        for nu, sp in zip(self.NUS, sweep):
            eta, terms = _pointwise_point(self.REF, seq, nu)
            b = sp.budget
            assert sp.sweep_value == nu
            assert sp.eta == eta
            assert (b.projection_var, b.backaction_var, b.thermal_var,
                    b.signal_phase_per_force) == terms

    @pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
    def test_sweep_with_explicit_coupling(self, seq):
        p = dataclasses.replace(self.REF, n_spins=3, nbar=None, temperature=0.0)
        sweep = sensitivity_spectrum(p, seq, self.NUS, coupling=2.5e3).points
        for nu, sp in zip(self.NUS, sweep):
            eta, terms = _pointwise_point(p, seq, nu, coupling=2.5e3)
            assert sp.eta == eta
            assert sp.budget.thermal_var == 0.0
            assert sp.budget.signal_phase_per_force == terms[3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, bad):
        seq = carr_purcell2(1e-4)
        with pytest.raises(ValueError, match="finite"):
            sensitivity_spectrum(self.REF, seq, [2 * math.pi * 10.0, bad])
        with pytest.raises(ValueError, match="finite"):
            force_sensitivity(self.REF, seq, bad)

    def test_infinite_thermal_variance_raises(self):
        p = dataclasses.replace(self.REF, quality_factor=1e-300)  # nbar/Q = 1e306
        with pytest.raises(ValueError, match="thermal phase variance is not finite"):
            sensitivity_spectrum(p, carr_purcell2(1e-4), [2 * math.pi * 10.0])
        spec = sensitivity_spectrum(dataclasses.replace(p, nbar=0.0), carr_purcell2(1e-4), [2 * math.pi * 10.0])
        assert math.isfinite(spec.eta[0])


class TestForceSqlZero:
    def test_refocused_ramsey_raises(self):
        # omega tau = 2 pi: the same Dn/g^2 zero test as optimal_coupling, instead
        # of a near-perfect SQL of 1.7e-14
        omega, tau, xi = 2 * math.pi * 100, 0.01, 0.25
        with pytest.raises(UnboundedCouplingError):
            force_sql(SequenceKind.RAMSEY, omega, tau, xi)
        with pytest.raises(UnboundedCouplingError):
            optimal_coupling(SequenceKind.RAMSEY, omega, tau, xi)


class TestUnderflowingCoolingFactor:
    def test_zero_xi_is_unbounded(self):
        # xi = e^(-1e303) underflows to 0: no backaction, so g* is unbounded
        p = dataclasses.replace(params_from_dict(REFERENCE_DEVICE), cooling_time=1e300)
        xi = cooling_factor(p.cooling_rate, p.cooling_time)
        assert xi == 0.0
        with pytest.raises(UnboundedCouplingError, match="xi"):
            sensing._balance_coupling(carr_purcell2(1e-4), p.trap_frequency, xi, 1.0)
        with pytest.raises(UnboundedCouplingError, match="xi"):
            optimal_coupling(SequenceKind.HAHN_ECHO, p.trap_frequency, 1e-4, xi)
        with pytest.raises(UnboundedCouplingError, match="xi"):
            sensitivity_spectrum(p, carr_purcell2(1e-4), [2 * math.pi * 10.0])



class TestSensitivitySpectrum:
    REF = params_from_dict(REFERENCE_DEVICE)
    NUS = TestSensitivitySweep.NUS

    @pytest.mark.parametrize("seq", TestSensitivitySweep.SEQS, ids=TestSensitivitySweep.SEQ_IDS)
    def test_arrays_hold_the_sweep(self, seq):
        spec = sensing.sensitivity_spectrum(self.REF, seq, self.NUS)
        assert spec.nus.dtype == spec.eta.dtype == spec.signal_phase_per_force.dtype == np.float64
        assert spec.points == [force_sensitivity(self.REF, seq, nu) for nu in self.NUS]
        for sp in spec.points:
            assert (sp.budget.projection_var, sp.budget.backaction_var, sp.budget.thermal_var) == (
                spec.projection_var, spec.backaction_var, spec.thermal_var)

    def test_overflowing_numerator_names_the_coupling(self):
        # the message named only delta_n, which the caller did not pass
        with pytest.raises(ParameterError, match=r"^noise numerator is not finite at coupling = 1e\+100, delta_n = "):
            sensing.sensitivity_spectrum(self.REF, carr_purcell2(1e-4), [1.0], coupling=1e100)

    def test_empty_grid(self):
        spec = sensing.sensitivity_spectrum(self.REF, carr_purcell2(1e-4), [])
        assert spec.eta.shape == (0,) and spec.points == []

    def test_noise_to_signal_array_equals_scalar(self):
        phis = np.array([0.0, 1e-9, 3.7e-7, 2.0, 1e150])
        got = noise_to_signal(phis, 0.3, 0.25, 2.0, 1e-3)
        assert got.tolist() == [noise_to_signal(p, 0.3, 0.25, 2.0, 1e-3) for p in phis.tolist()]
        assert got[0] == math.inf


class TestCustomKindHasNoSql:
    """A custom kind names no pulse list, so the kind-level solvers raise
    instead of solving for Ramsey."""

    def test_force_sql_and_optimal_coupling_raise(self):
        with pytest.raises(ValueError, match="custom"):
            force_sql("custom", 1.0, 0.1, 1.0)
        with pytest.raises(ValueError, match="custom"):
            optimal_coupling(SequenceKind.CUSTOM, 1.0, 0.1, 0.25)

"""Noise budgets, SQL solvers, anchor sensitivities, squeezed readout."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinlev import pulses, sensing
from spinlev.constants import GAMMA_E_DEFAULT, HBAR
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
from spinlev.units import REFERENCE_DEVICE, PhysicalParams, params_from_dict, to_natural
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

    def test_zero_phase_is_infinite(self):
        assert math.isinf(noise_to_signal(0.0, 0.1, 1.0, 1.0, 0.0))

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

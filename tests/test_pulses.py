"""Pulse-sequence functionals: sign profile, displacement, kernels, squeezing."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from spinlev import dynamics, pulses, sensing
from spinlev.pulses import (
    SequenceKind,
    carr_purcell2,
    custom,
    dc_phase,
    delta_n_closed_form,
    hahn_echo,
    kernel_l2,
    leading_order_row,
    make_sequence,
    phase_kernel,
    ramsey,
    residual_displacement,
    segment_index,
    spectral_response,
    squeezing_parameter,
    zeta_closed_form,
)

KINDS = [SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2]
MAKERS = {SequenceKind.RAMSEY: ramsey, SequenceKind.HAHN_ECHO: hahn_echo,
          SequenceKind.CARR_PURCELL2: carr_purcell2}


def seq_name(seq):
    """The named kind whose pulse list seq has, else "custom" (a test id)."""
    return next((k.value for k in KINDS if make_sequence(k, seq.total_time) == seq), "custom")


def sign_profile(seq, t):
    """s(t): +1 before the first pulse, flipping at each pulse, right-continuous."""
    return 1 - 2 * (segment_index(seq, t) % 2)


def ramsey_paper_kernel(g: float, omega: float, tau: float, nu: float) -> complex:
    """The printed Ramsey closed-form response 2g[nu(cos wt-1) - w(cos nt-1)]/(nu w (nu-w)).

    Removable singularities at nu -> 0 and nu -> omega are evaluated by series limit.
    """
    th = omega * tau
    if abs(nu) * tau < 1e-6:
        # numerator ~ nu [(cos wt - 1) + w nu tau^2/2]; denominator ~ -nu w^2
        return 2.0 * g * (1.0 - math.cos(th)) / (omega * omega)
    if abs(nu - omega) * tau < 1e-6:
        # L'Hopital at nu = omega: numerator' = (cos wt - 1) + w t sin(w t), denominator' = w^2
        return 2.0 * g * ((math.cos(th) - 1.0) + th * math.sin(th)) / (omega * omega)
    return 2.0 * g * (nu * (math.cos(th) - 1.0) - omega * (math.cos(nu * tau) - 1.0)) / (
        nu * omega * (nu - omega)
    )


def cp_approx_kernel(g: float, omega: float, tau: float, nu: float) -> complex:
    """Small-omega-tau Gaussian approximation of the two-pulse Carr-Purcell response."""
    return (
        (g * omega * tau**3 / 2**5)
        * cmath.exp(-1j * nu * tau / 2)
        * math.exp(-(9 * omega**2 + nu**2) * tau**2 / 2**6)
    )


def random_sequences():
    """Strategy producing Custom sequences with 0-4 interior pulses."""
    return st.lists(st.floats(0.05, 0.95), min_size=0, max_size=4, unique=True).map(
        lambda ts: custom(1.0, sorted(ts))
    )


class TestSequenceConstruction:
    def test_named_pulse_times(self):
        assert ramsey(1.0).pulse_times == ()
        assert hahn_echo(1.0).pulse_times == (0.5,)
        assert carr_purcell2(1.0).pulse_times == (0.25, 0.75)

    def test_rejects_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError):
            custom(1.0, [0.7, 0.3])
        with pytest.raises(ValueError):
            custom(1.0, [1.5])
        with pytest.raises(ValueError):
            custom(1.0, [0.3, 0.3])

    def test_make_sequence_accepts_strings(self):
        assert make_sequence("hahn_echo", 2.0).pulse_times == (1.0,)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_named_kind_rejects_pulse_times(self, kind):
        with pytest.raises(ValueError, match="builds its own pulse times"):
            make_sequence(kind, 1.0, [0.3])
        with pytest.raises(ValueError, match="builds its own pulse times"):
            make_sequence(kind.value, 1.0, [])

    def test_custom_needs_pulse_times(self):
        with pytest.raises(ValueError, match="custom"):
            make_sequence("custom", 1.0)
        with pytest.raises(ValueError, match="custom"):
            make_sequence(SequenceKind.CUSTOM, 1.0)
        assert make_sequence("custom", 1.0, [0.3]) == custom(1.0, [0.3])
        assert make_sequence("custom", 1.0, []) == ramsey(1.0)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("tau", [1e-4, 0.3, 1.0, 2 * math.pi])
    def test_a_sequence_is_its_pulse_list(self, kind, tau):
        named = make_sequence(kind, tau)
        same = custom(tau, named.pulse_times)
        assert same == named and hash(same) == hash(named)
        assert custom(tau, [tau / 3]) != named

    def test_named_kinds_order(self):
        assert pulses.NAMED_KINDS == tuple(KINDS)

    @pytest.mark.parametrize("name", ["ramsey", "hahn_echo", "carr_purcell2"])
    def test_a_kind_is_its_name(self, name):
        member = SequenceKind[name.upper()]
        assert member == name and f"{member}" == str(member) == name
        assert pulses.NAMED_KINDS == ("ramsey", "hahn_echo", "carr_purcell2")
        assert all(type(k) is str for k in pulses.NAMED_KINDS)
        assert list(SequenceKind) == [*pulses.NAMED_KINDS, "custom"]
        omega, tau = 2 * math.pi * 100, 1e-4
        for call in (lambda k: make_sequence(k, tau),
                     lambda k: delta_n_closed_form(k, 0.7, omega, tau),
                     lambda k: zeta_closed_form(k, 0.7, omega, tau),
                     lambda k: leading_order_row(k, omega, tau),
                     lambda k: sensing.force_sql(k, omega, tau, 0.25),
                     lambda k: sensing.optimal_coupling(k, omega, tau, 0.25)):
            assert repr(call(name)) == repr(call(member))  # float repr round-trips: same bits

    def test_custom_has_no_closed_forms(self):
        for closed_form in (delta_n_closed_form, zeta_closed_form):
            with pytest.raises(ValueError, match="no closed form for custom sequences"):
                closed_form(SequenceKind.CUSTOM, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="leading-order rows exist only for the named kinds"):
            leading_order_row("custom", 1.0, 0.1)


class TestSignProfile:
    def test_dc_cancellation(self):
        # integral of the sign profile: tau for Ramsey, 0 for the echoes
        for seq, expect in [(ramsey(1.0), 1.0), (hahn_echo(1.0), 0.0),
                            (carr_purcell2(1.0), 0.0)]:
            total = sum((-1) ** k * (b - a)
                        for a, b, k, _ in zip(*(x.tolist() for x in pulses.pieces(seq))))
            assert total == pytest.approx(expect, abs=1e-15)


class TestResidualDisplacement:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("omega_tau", [0.1, 0.7, math.pi, 5.0])
    def test_matches_closed_form(self, kind, omega_tau):
        g, omega = 0.7, 2.0
        seq = MAKERS[kind](omega_tau / omega)
        _, dn = residual_displacement(seq, g, omega)
        assert dn == pytest.approx(delta_n_closed_form(kind, g, omega, seq.total_time), rel=1e-10)

    def test_ramsey_zeros_at_full_periods(self):
        g, omega = 1.3, 1.0
        for n in (1, 2, 3):
            seq = ramsey(2 * math.pi * n / omega)
            _, dn = residual_displacement(seq, g, omega)
            assert dn < 1e-12 * g**2 / omega**2

    def test_matches_quadrature(self):
        g, omega = 0.9, 1.7
        seq = custom(1.0, [0.2, 0.55, 0.8])
        re = quad(lambda t: math.cos(omega * (seq.total_time - t)) * sign_profile(seq, t),
                  0, seq.total_time, points=seq.pulse_times)[0]
        im = quad(lambda t: -math.sin(omega * (seq.total_time - t)) * sign_profile(seq, t),
                  0, seq.total_time, points=seq.pulse_times)[0]
        beta, _ = residual_displacement(seq, g, omega)
        assert beta == pytest.approx(-1j * g * complex(re, im), rel=1e-12)


class TestResponseKernel:
    def test_paper_anchor(self):
        # Ramsey, tau = 2 pi / omega, nu = omega/2: peak value -16 g / omega^2
        g, omega = 1.0, 1.0
        tau = 2 * math.pi / omega
        val = ramsey_paper_kernel(g, omega, tau, omega / 2)
        assert val.real == pytest.approx(-16 * g / omega**2, rel=1e-12)
        assert abs(val.imag) < 1e-12

    def test_zero_coupling(self):
        assert spectral_response(hahn_echo(1.0), 0.0, 2.0, 0.5) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seq=random_sequences(), nu=st.floats(-20.0, 20.0), omega=st.floats(0.5, 10.0))
    def test_hermitian_symmetry(self, seq, nu, omega):
        plus = spectral_response(seq, 1.0, omega, nu) / math.sqrt(2 * math.pi)
        minus = spectral_response(seq, 1.0, omega, -nu) / math.sqrt(2 * math.pi)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-9, abs=1e-12)

    def test_removable_singularities(self):
        g, omega = 0.8, 1.0
        seq = carr_purcell2(3.0)
        for nu0 in (0.0, omega, -omega):
            at = spectral_response(seq, g, omega, nu0) / math.sqrt(2 * math.pi)
            near = spectral_response(seq, g, omega, nu0 + 1e-9) / math.sqrt(2 * math.pi)
            assert at == pytest.approx(near, rel=1e-5, abs=1e-12)

    def test_matches_quadrature(self):
        g, omega, nu = 1.1, 2.3, 0.9
        seq = custom(1.0, [0.3, 0.6])

        def k_quad(s):
            return g * quad(lambda t: sign_profile(seq, t) * math.sin(omega * (t - s)),
                            s, seq.total_time, points=[p for p in seq.pulse_times if p > s])[0]

        expect_re = quad(lambda s: k_quad(s) * math.cos(nu * s),
                         0, seq.total_time, points=seq.pulse_times, limit=200)[0]
        chi = spectral_response(seq, g, omega, nu)
        assert chi.real == pytest.approx(expect_re, rel=1e-7, abs=1e-10)

    def test_phase_kernel_at_dc(self):
        # dc_phase is the integral of the phase kernel K(s)
        g, omega = 0.6, 1.4
        seq = hahn_echo(2.0)
        ss = np.linspace(0, seq.total_time, 20001)
        trapz = np.trapezoid(phase_kernel(seq, g, omega, ss), ss)
        assert dc_phase(seq, g, omega) == pytest.approx(trapz, rel=1e-6)

    def test_kernel_l2(self):
        g, omega = 0.6, 1.4
        seq = carr_purcell2(2.0)
        ss = np.linspace(0, seq.total_time, 40001)
        trapz = np.trapezoid(phase_kernel(seq, g, omega, ss) ** 2, ss)
        assert kernel_l2(seq, g, omega) == pytest.approx(trapz, rel=1e-6)


class TestCpApproxKernel:
    def test_dc_magnitude(self):
        g, omega, tau = 1.0, 1.0, 0.3
        expect = g * omega * tau**3 / 32 * math.exp(-9 * omega**2 * tau**2 / 64)
        assert abs(cp_approx_kernel(g, omega, tau, 0.0)) == pytest.approx(expect, rel=1e-12)

    def test_zero_coupling(self):
        assert cp_approx_kernel(0.0, 1.0, 0.3, 1.0) == 0.0

    def test_validity_band(self):
        # within 50% of the exact kernel for nu <= 2 pi / tau at omega tau = 0.05 pi
        omega = 1.0
        tau = 0.05 * math.pi / omega
        seq = carr_purcell2(tau)
        for nu in np.linspace(0, 2 * math.pi / tau, 25):
            exact = abs(spectral_response(seq, 1.0, omega, nu))
            approx = abs(cp_approx_kernel(1.0, omega, tau, nu))
            assert abs(approx - exact) <= 0.5 * exact


class TestSqueezing:
    @pytest.mark.parametrize("kind", KINDS)
    def test_closed_forms_over_two_periods(self, kind):
        g, omega = 1.0, 1.0
        for omega_tau in np.linspace(2 * math.pi / 100, 2 * math.pi, 100):
            seq = MAKERS[kind](omega_tau / omega)
            exact = squeezing_parameter(seq, g, omega)
            closed = zeta_closed_form(kind, g, omega, seq.total_time)
            assert exact == pytest.approx(closed, rel=1e-10, abs=1e-18)

    def test_trivial_limits(self):
        assert squeezing_parameter(ramsey(1.0), 0.0, 1.0) == 0.0
        assert squeezing_parameter(ramsey(1e-9), 1.0, 1.0) == pytest.approx(0.0, abs=1e-20)

    def test_matches_nested_quadrature(self):
        g, omega = 0.8, 1.3
        seq = custom(1.0, [0.4])

        def inner(t):
            return quad(lambda tp: math.sin(omega * (t - tp)) * sign_profile(seq, tp),
                        0, t, points=[p for p in seq.pulse_times if p < t])[0]

        expect = g**2 * quad(lambda t: sign_profile(seq, t) * inner(t),
                             0, seq.total_time, points=seq.pulse_times, limit=200)[0]
        assert squeezing_parameter(seq, g, omega) == pytest.approx(expect, rel=1e-4)


class TestLeadingOrderRow:
    def test_table_values_at_small_omega_tau(self):
        omega, tau = 1.0, 0.1
        cp = leading_order_row(SequenceKind.CARR_PURCELL2, omega, tau)
        assert cp.delta_n_per_g2 == pytest.approx(omega**4 * tau**6 / 1024, rel=1e-15)
        assert cp.phi_per_gf == pytest.approx(omega * tau**3 / 32, rel=1e-15)
        assert cp.force_sql_scale == omega
        ram = leading_order_row(SequenceKind.RAMSEY, omega, tau)
        assert ram.phi_per_gf == pytest.approx(omega * tau**3 / 6, rel=1e-15)
        assert ram.delta_n_per_g2 == pytest.approx(tau**2, rel=1e-15)

    @pytest.mark.parametrize("kind", [SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO,
                                      SequenceKind.CARR_PURCELL2])
    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e200])
    def test_non_finite_scaling_raises(self, kind, tau):
        with pytest.raises(ValueError, match="omega_tau"):
            leading_order_row(kind, 1.0, tau)

    def test_out_of_regime_flag(self):
        assert leading_order_row(SequenceKind.RAMSEY, 1.0, 0.1).in_regime
        assert not leading_order_row(SequenceKind.RAMSEY, 1.0, 1.0).in_regime

    def test_leading_order_approaches_exact(self):
        omega, tau, g = 1.0, 0.05, 1.0
        row = leading_order_row(SequenceKind.HAHN_ECHO, omega, tau)
        exact = delta_n_closed_form(SequenceKind.HAHN_ECHO, g, omega, tau)
        assert exact == pytest.approx(row.delta_n_per_g2, rel=1e-3)
        phi = dc_phase(hahn_echo(tau), g, omega)
        assert abs(phi) == pytest.approx(g * row.phi_per_gf, rel=1e-3)


def _mp_int_exp(z, a, b, mp):
    """int_a^b e^{z s} ds in mpmath arithmetic."""
    return b - a if z == 0 else (mp.exp(z * b) - mp.exp(z * a)) / z


def _mp_kernel_pieces(seq, g, omega, mp):
    """(a, b, s, k0, R) per pulse segment in mpmath numbers at the working
    precision: K = k0 + Im(R e^{-i omega s}) there, k0 = s g / omega, R from
    the segment-boundary phasors; the route the double-precision code used
    to take, which cancels only at small omega tau."""
    g, omega = mp.mpf(g), mp.mpf(omega)
    edges = [mp.mpf(0), *map(mp.mpf, seq.pulse_times), mp.mpf(seq.total_time)]
    out, tail = [], mp.mpc(0)
    for k in reversed(range(len(edges) - 1)):
        a, b, s = edges[k], edges[k + 1], (-1) ** k
        r = g / (1j * omega) * s * mp.exp(1j * omega * b) + tail
        tail = r - g / (1j * omega) * s * mp.exp(1j * omega * a)
        out.append((a, b, s, s * g / omega, r))
    return out[::-1]


def _mp_spectral_response(seq, g, omega, nu, mp):
    """int_0^tau K(s) e^{-i nu s} ds at 50 digits, from the per-segment kernel
    pieces integrated segment by segment, exact in this arithmetic."""
    with mp.workdps(50):
        omega, nu = mp.mpf(omega), mp.mpf(nu)
        total = mp.mpc(0)
        for a, b, s, k0, r in _mp_kernel_pieces(seq, g, omega, mp):
            total += k0 * _mp_int_exp(-1j * nu, a, b, mp)
            total += (r * _mp_int_exp(-1j * (omega + nu), a, b, mp)
                      - mp.conj(r) * _mp_int_exp(1j * (omega - nu), a, b, mp)) / 2j
        return complex(total)


def _mp_functionals(seq, g, omega, force, points, mp):
    """(int K^2, zeta, Delta n, int K f, K at points) at 40 digits from the
    kernel pieces, for a boxcar force (edges, values) on [0, tau]."""
    with mp.workdps(40):
        w, gm = mp.mpf(omega), mp.mpf(g)
        pieces = _mp_kernel_pieces(seq, g, omega, mp)
        l2 = zeta = phase = mp.mpf(0)
        acc = mp.mpc(0)
        for a, b, s, k0, r in pieces:
            # K^2 = k0^2 + 2 k0 Im(z) + (|R|^2 - Re(z^2))/2 with z = R e^{-i omega s}
            im_r = mp.im(r * _mp_int_exp(-1j * w, a, b, mp))
            l2 += ((k0 * k0 + abs(r) ** 2 / 2) * (b - a) + 2 * k0 * im_r
                   - mp.re(r * r * _mp_int_exp(-2j * w, a, b, mp)) / 2)
            zeta += s * gm * (k0 * (b - a) + im_r)
            acc += s * _mp_int_exp(1j * w, a, b, mp)
            for fa, fb, f in zip(force[0], force[0][1:], force[1]):
                lo, hi = max(mp.mpf(fa), a), min(mp.mpf(fb), b)
                if hi > lo:
                    phase += f * (k0 * (hi - lo) + mp.im(r * _mp_int_exp(-1j * w, lo, hi, mp)))
        kernel = [next(k0 + mp.im(r * mp.exp(-1j * w * x)) for a, b, _, k0, r in pieces if a <= x <= b)
                  for x in map(mp.mpf, points)]
        return (float(l2), float(zeta), float(gm * gm * abs(acc) ** 2), float(phase),
                np.array([float(k) for k in kernel]))


def _reference_deviations(seq, g, omega):
    """{name: (|value - reference|, |reference|, bound)} for kernel_l2, zeta,
    Delta n, the force_response phase and phase_kernel (its largest
    deviation over 17 points, against its largest value) at 40 digits; bound
    is the largest value the functional can take for a kernel of this norm:
    |zeta| <= g (tau int K^2)^1/2, |phi| <= (int K^2 int f^2)^1/2, Delta n <= g^2 tau^2."""
    mp = pytest.importorskip("mpmath")
    tau = seq.total_time
    force = ([0.0, 0.17 * tau, 0.5 * tau, 0.61 * tau, tau], [0.3, -0.2, 0.5, 0.1])
    points = np.linspace(0.0, tau, 17)
    l2, zeta, dn, phase, kernel = _mp_functionals(seq, g, omega, force, points, mp)
    f2 = sum(f * f * (b - a) for a, b, f in zip(force[0], force[0][1:], force[1]))
    k_max = np.abs(kernel).max()
    return {
        "l2": (abs(kernel_l2(seq, g, omega) - l2), l2, l2),
        "zeta": (abs(squeezing_parameter(seq, g, omega) - zeta), abs(zeta), g * math.sqrt(tau * l2)),
        "dn": (abs(residual_displacement(seq, g, omega)[1] - dn), dn, g * g * tau * tau),
        "phase": (abs(pulses.force_response(seq, g, omega, force)[0] - phase), abs(phase),
                  math.sqrt(l2 * f2)),
        "kernel": (np.abs(phase_kernel(seq, g, omega, points) - kernel).max(), k_max, k_max),
    }


class TestSpectralResponseReference:
    """The closed-form spectral response against a 50-digit reference at the
    reference device: 1 Hz - 100 kHz, plus nu = 0, +-omega and omega (1 +- 1e-9)."""

    TAU = 1e-4
    SEQS = [ramsey(TAU), hahn_echo(TAU), carr_purcell2(TAU),
            custom(TAU, [1.3e-5, 3.7e-5, 4.1e-5, 8.9e-5])]

    @pytest.mark.parametrize("seq", SEQS, ids=seq_name)
    def test_within_1e_9_of_50_digits(self, seq):
        mp = pytest.importorskip("mpmath")
        from spinlev.units import REFERENCE_DEVICE, params_from_dict, to_natural

        omega = to_natural(params_from_dict(REFERENCE_DEVICE)).omega
        g = 2.5e3
        nus = [2 * math.pi * f for f in np.geomspace(1.0, 1e5, 41)]
        nus += [0.0, omega, -omega, omega * (1 + 1e-9), omega * (1 - 1e-9), -2 * math.pi * 5e4]
        got = pulses.spectral_response(seq, g, omega, np.array(nus))
        for nu, value in zip(nus, got):
            ref = _mp_spectral_response(seq, g, omega, nu, mp)
            assert abs(value - ref) <= 1e-9 * abs(ref), (nu, value, ref)


class TestKernelFunctionalsReference:
    """The time-domain functionals, all built on one backward kernel
    recursion, against 40 digits: within 1e-13 relative, except Delta n
    for CP2 below omega tau = 0.2, whose first two moments vanish, so that
    both routes lose (omega tau)^-2 to the same moment cancellation."""

    OMEGA = 2 * math.pi * 100  # the reference device
    DEVICE = [maker(tau) for tau in (3e-5, 1e-4, 3e-4) for maker in (ramsey, hahn_echo, carr_purcell2)]
    DEVICE.append(custom(1e-4, [1.3e-5, 3.7e-5, 4.1e-5, 8.9e-5]))
    UNIT = [maker(wt) for wt in (0.1, 1.0, math.pi, 2 * math.pi, 10.0)
            for maker in (ramsey, hahn_echo, carr_purcell2)]

    @pytest.mark.parametrize("seq", DEVICE + UNIT, ids=lambda s: f"{seq_name(s)}-{s.total_time:.3g}")
    def test_fixed_sequences(self, seq):
        g, omega = (2.5e3, self.OMEGA) if seq.total_time < 1e-3 else (0.7, 1.0)
        errors = {name: dev / ref for name, (dev, ref, _) in _reference_deviations(seq, g, omega).items()}
        dn_gate = 1e-13
        if seq == carr_purcell2(seq.total_time) and omega * seq.total_time < 0.2:
            dn_gate = 4e-15 / (omega * seq.total_time) ** 2  # 1.1e-11 at tau = 3e-5 s
        assert errors.pop("dn") <= dn_gate
        assert max(errors.values()) <= 1e-13, errors

    @settings(max_examples=25, deadline=None)
    @given(tau=st.sampled_from([0.1, 1.0, math.pi, 2 * math.pi, 10.0]),
           units=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=3, max_size=64, unique=True))
    def test_random_pulse_lists(self, tau, units):
        # a random pulse list can refocus zeta, Delta n or the force phase to
        # near 0, so these are held to their bound for the kernel's norm
        seq = custom(tau, sorted({tau * u for u in units}))
        assume(len(seq.pulse_times) >= 3)
        errors = {name: dev / bound for name, (dev, _, bound) in _reference_deviations(seq, 0.7, 1.0).items()}
        assert max(errors.values()) <= 1e-13, errors


class TestHomogeneousInG:
    @settings(max_examples=100, deadline=None)
    @given(seq=st.lists(st.floats(0.01, 0.99), max_size=12, unique=True).map(
               lambda ts: custom(1.5, sorted(ts))),
           omega=st.floats(0.05, 20.0), g=st.floats(1e-3, 1e3))
    def test_quadratic_in_g_to_one_ulp(self, seq, omega, g):
        # K is formed at unit coupling and scaled by g afterwards, so Delta n,
        # int K^2 and zeta are g^2 times their unit-coupling values
        for f in (lambda c: residual_displacement(seq, c, omega)[1],
                  lambda c: kernel_l2(seq, c, omega), lambda c: squeezing_parameter(seq, c, omega)):
            expect = g * g * f(1.0)
            assert abs(f(g) - expect) <= math.ulp(expect)


class TestNonFiniteCoupling:
    """A NaN or infinite g or omega raises a ValueError naming it, instead
    of returning NaN."""

    ROUTES = {
        "residual_displacement": residual_displacement,
        "kernel_l2": kernel_l2,
        "squeezing_parameter": squeezing_parameter,
        "phase_kernel": lambda seq, g, omega: phase_kernel(seq, g, omega, [0.3]),
        "spectral_response": lambda seq, g, omega: pulses.spectral_response(seq, g, omega, 0.5),
        "dc_phase": dc_phase,
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_g(self, route, bad):
        with pytest.raises(ValueError, match="g must be finite"):
            self.ROUTES[route](carr_purcell2(1.0), bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", sorted(set(ROUTES) - {"dc_phase", "spectral_response"}))
    def test_omega(self, route, bad):
        with pytest.raises(ValueError, match="omega must be finite"):
            self.ROUTES[route](carr_purcell2(1.0), 0.7, bad)


_FORCE = ([0.0, 0.4, 1.0], [0.2, -0.1])  # a force series in the form pieces checks


class TestOneCouplingDomain:
    """Every kernel functional and exact route takes (g, omega, tau) through
    pulses.check_coupling: g finite, omega finite and > 0, one rule and one
    message on every route."""

    ROUTES = {
        "residual_displacement": residual_displacement,
        "kernel_l2": kernel_l2,
        "squeezing_parameter": squeezing_parameter,
        "phase_kernel": lambda seq, g, omega: phase_kernel(seq, g, omega, [0.3]),
        "spectral_response": lambda seq, g, omega: spectral_response(seq, g, omega, 0.5),
        "spectral_response_array": lambda seq, g, omega: spectral_response(
            seq, g, omega, np.array([0.0, 0.5, 30.0])),
        "dc_phase": dc_phase,
        "force_response": lambda seq, g, omega: pulses.force_response(seq, g, omega, _FORCE),
        "delta_n_closed_form": lambda seq, g, omega: delta_n_closed_form(
            "carr_purcell2", g, omega, seq.total_time),
        "zeta_closed_form": lambda seq, g, omega: zeta_closed_form("carr_purcell2", g, omega, seq.total_time),
        "evolve_state": dynamics.evolve_state,
        "trajectory": lambda seq, g, omega: dynamics.trajectory(seq, g, omega, 0, 3),
    }
    BAD = [(g, 1.0) for g in (math.nan, math.inf, -math.inf)] + [
        (0.7, omega) for omega in (math.nan, math.inf, -math.inf, 0.0, -1.0)]

    @pytest.mark.parametrize("g,omega", BAD, ids=lambda x: repr(x))
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_raises_what_check_coupling_raises(self, route, g, omega):
        # omega = 0 once reached a limit branch in residual_displacement and a
        # third message ("omega must be > 0") in the boxcar force route; the
        # closed forms raised ZeroDivisionError there
        with pytest.raises(ValueError) as expected:
            pulses.check_coupling(g, omega, 1.0)
        with pytest.raises(ValueError) as got:
            self.ROUTES[route](carr_purcell2(1.0), g, omega)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_zero_coupling_allowed(self, route):
        self.ROUTES[route](carr_purcell2(1.0), 0.0, 1.0)


class TestForceResponse:
    def test_constant_force_matches_the_spectral_route_and_the_closed_form(self):
        # phase: f times the nu = 0 transform of K; displacement:
        # +i int_0^tau e^{-i omega (tau - t)} f dt = f (1 - e^{-i omega tau})/omega
        seq, g, omega, f = custom(1.3, [0.2, 0.7, 0.9]), 0.7, 2.3, 0.4
        phase, disp = pulses.force_response(seq, g, omega, ([0.0, seq.total_time], [f]))
        assert phase == pytest.approx(f * dc_phase(seq, g, omega), rel=1e-13)
        assert disp == pytest.approx(f * (1 - cmath.exp(-1j * omega * seq.total_time)) / omega, rel=1e-13)

    def test_zero_force_leaves_nothing(self):
        phase, disp = pulses.force_response(hahn_echo(1.0), 0.7, 2.3, ([0.0, 1.0], [0.0]))
        assert phase == 0.0 and disp == 0.0


class TestPulsesBoundary:
    def test_no_other_module_reads_a_private_pulses_name(self):
        # the kernel's layout (_kernel_ends, _kernel_at, ...) can change inside
        # pulses alone: every other module reads public pulses names only
        reads = []
        for path in sorted(Path(pulses.__file__).parent.glob("*.py")):
            if path.name != "pulses.py":
                reads += _pulses_reads(path)
        assert ("sensing.py", "kernel_l2") in reads  # the walk sees the reads
        assert [r for r in reads if r[1].startswith("_")] == []


def _pulses_reads(path):
    """(file name, name) for each name a module reads from pulses: by
    `from .pulses import name`, or as `pulses.name` where `from . import
    pulses [as alias]` binds the module."""
    tree = ast.parse(path.read_text(), str(path))
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("pulses", "spinlev.pulses"):
            reads += [(path.name, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "spinlev"):
            aliases |= {a.asname or a.name for a in node.names if a.name == "pulses"}
    return reads + [(path.name, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases]


class TestPhaseKernelDomain:
    @pytest.mark.parametrize("s", [[math.nan], [0.2, math.nan], [-1e-12], [1.0 + 1e-12], [math.inf]])
    def test_points_outside_zero_tau_raise(self, s):
        # NaN fails every comparison, so it is rejected as "not in [0, tau]"
        with pytest.raises(ValueError, match=r"s outside \[0, tau\]"):
            phase_kernel(hahn_echo(1.0), 0.5, 1.0, s)

    def test_interval_ends_accepted(self):
        k = phase_kernel(hahn_echo(1.0), 0.5, 1.0, [0.0, 1.0])
        assert np.isfinite(k).all() and k[1] == 0.0


@st.composite
def spectral_cases(draw):
    """A pulse list with 0-64 pulses, omega tau from 1e-3 to 1e2, and an array of
    nu mixing 0, +-omega, frequencies near omega and 1/tau, and wide random ones."""
    tau = draw(st.floats(1e-3, 1e2))
    n_pulses = draw(st.integers(0, 64))
    unit = st.floats(1e-6, 1.0 - 1e-6)
    times = sorted({tau * u for u in draw(st.lists(unit, min_size=n_pulses, max_size=n_pulses))})
    omega = draw(st.floats(1e-3, 1e2)) / tau
    special = st.sampled_from([0.0, omega, -omega, 2 * omega, omega * (1 + 1e-9), 1 / tau, -0.5 / tau])
    wide = st.floats(-1e4 / tau, 1e4 / tau)
    nus = draw(st.lists(st.one_of(special, wide), min_size=1, max_size=40))
    return custom(tau, times), omega, nus


class TestSpectralResponseArrays:
    @settings(max_examples=60, deadline=None)
    @given(case=spectral_cases(), g=st.floats(0.1, 3.0), data=st.data())
    def test_array_elements_equal_scalar_calls(self, case, g, data):
        seq, omega, nus = case
        got = pulses.spectral_response(seq, g, omega, np.array(nus))
        order = data.draw(st.permutations(range(len(nus))))
        shuffled = pulses.spectral_response(seq, g, omega, np.array(nus)[order])
        for i, nu in enumerate(nus):
            scalar = pulses.spectral_response(seq, g, omega, nu)
            assert isinstance(scalar, complex)
            # bit for bit, also with the element's neighbours shuffled
            assert (got[i].real, got[i].imag) == (scalar.real, scalar.imag), nu
        assert np.array_equal(shuffled, got[order])

    def test_shape_and_conjugate_symmetry(self):
        seq = carr_purcell2(3.0)
        half = np.linspace(0.0, 4.0, 6)
        nus = np.concatenate((-half[::-1], half)).reshape(3, 4)
        got = pulses.spectral_response(seq, 0.8, 1.0, nus)
        assert got.shape == (3, 4)
        assert np.array_equal(got, np.conj(got[::-1, ::-1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pulses.spectral_response(hahn_echo(1.0), 1.0, 1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            pulses.spectral_response(hahn_echo(1.0), 1.0, 1.0, np.array([0.5, bad]))
        with pytest.raises(ValueError, match="omega"):
            pulses.spectral_response(hahn_echo(1.0), 1.0, bad, 0.5)

    def test_overflowing_phase_rejected(self):
        # |nu| tau overflows: no sin(inf) NaN and no numpy warning, a ValueError
        with pytest.raises(ValueError, match="finite"):
            pulses.spectral_response(hahn_echo(1e10), 1.0, 1.0, 1e300)
        with pytest.raises(ValueError, match="finite"):
            pulses.spectral_response(hahn_echo(1e10), 1.0, 1.0, np.array([0.5, -1e300]))


class TestKernelContinuity:
    @settings(max_examples=80, deadline=None)
    @given(seq=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12, unique=True).map(
               lambda ts: custom(2.0, sorted(ts))),
           g=st.floats(0.1, 3.0), omega=st.floats(0.05, 20.0))
    def test_kernel_continuous_at_pulse_edges(self, seq, g, omega):
        # K(s) = int_s^tau G(t) sin(omega (t - s)) dt has no jump where G does:
        # phase_kernel just before each pulse (the segment that ends there) and
        # at it (the segment that starts there) agree, and K(tau) = 0
        scale = g / omega * (2 + len(seq.pulse_times))
        for t in seq.pulse_times:
            left, right = phase_kernel(seq, g, omega, [math.nextafter(t, 0.0), t])
            assert abs(left - right) <= 1e-13 * scale
        assert phase_kernel(seq, g, omega, [seq.total_time])[0] == 0.0

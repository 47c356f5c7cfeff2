"""Exact branch dynamics: coherent evolution, composition, force phases."""

import cmath
import math

import numpy as np
import pytest

from spinlev import dynamics, pulses
from spinlev.dynamics import (
    evolve_state,
    magnus_phases,
    pulsed_state,
    pulseless_state,
    trajectory,
)
from spinlev.pulses import carr_purcell2, custom, hahn_echo, ramsey


class TestBranchStates:
    def test_zero_coupling_free_rotation(self):
        alpha, omega, tau = 0.8 + 0.3j, 2.0, 1.3
        st = pulseless_state(alpha, 0.0, omega, tau)
        expect = alpha * cmath.exp(-1j * omega * tau)
        for spin in (0, 1):
            assert st.branch(spin).alpha == pytest.approx(expect, rel=1e-14)
        assert st.observable_phase() == pytest.approx(0.0, abs=1e-14)

    def test_pulseless_circular_arc(self):
        # each branch orbits its displaced center at radius |alpha +/- g/omega|
        g, omega, alpha = 0.7, 1.0, 0.2 + 0.1j
        d = g / omega
        centers = {0: -d, 1: +d}
        for tau in np.linspace(0.1, 6.0, 7):
            st = pulseless_state(alpha, g, omega, tau)
            for spin in (0, 1):
                r = abs(st.branch(spin).alpha - centers[spin])
                assert r == pytest.approx(abs(alpha - centers[spin]), rel=1e-12)

    def test_equal_branch_weights(self):
        st = pulsed_state(0.3j, 1.1, 2.0, 0.7)
        assert abs(st.branch0.amplitude) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert abs(st.branch1.amplitude) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_composition(self):
        # evolving the two halves of a sequence equals the single shot
        g, omega, alpha = 0.9, 1.7, 0.4 - 0.2j
        tau = 1.2
        full = evolve_state(custom(tau, [0.3, 0.8]), g, omega, alpha)
        first = evolve_state(custom(tau / 2, [0.3]), g, omega, alpha)
        # remainder: pulse at 0.8 - 0.6 = 0.2 into a window of length 0.6;
        # the first half ends after one pulse, so the remainder starts with
        # the opposite toggling-frame sign
        rest = pulses.custom(tau / 2, [0.2])
        for spin, sign in ((0, +1), (1, -1)):
            b = first.branch(spin)
            theta, gamma = dynamics.branch_evolution(rest, g, omega, -sign, b.alpha)
            assert gamma == pytest.approx(full.branch(spin).alpha, rel=1e-12, abs=1e-12)

    def test_echo_refocusing_order(self):
        # spin-conditioned displacement: Ramsey O(wt), echo O((wt)^2)
        g, omega = 1.0, 1.0
        seps = {}
        for tau in (1e-2, 1e-3):
            r = pulseless_state(0, g, omega, tau)
            e = pulsed_state(0, g, omega, tau)
            seps[tau] = (abs(r.branch0.alpha - r.branch1.alpha),
                         abs(e.branch0.alpha - e.branch1.alpha))
        assert seps[1e-3][0] / seps[1e-2][0] == pytest.approx(0.1, rel=1e-2)
        assert seps[1e-3][1] / seps[1e-2][1] == pytest.approx(0.01, rel=1e-2)

    def test_branch_separation_equals_twice_beta(self):
        g, omega = 0.8, 1.4
        seq = carr_purcell2(2.0)
        st = evolve_state(seq, g, omega, 0.1 + 0.2j)
        beta, _ = pulses.residual_displacement(seq, g, omega)
        assert st.branch0.alpha - st.branch1.alpha == pytest.approx(2 * beta, rel=1e-12)


class TestTrajectory:
    def test_endpoint_matches_state(self):
        g, omega, tau = 1.1, 2.0, 0.9
        st = pulsed_state(0, g, omega, tau)
        for spin in (0, 1):
            pts = trajectory(hahn_echo(tau), g, omega, spin, 50)
            t, x, p = pts[-1]
            gamma = st.branch(spin).alpha
            assert t == tau
            assert x == pytest.approx(math.sqrt(2) * gamma.real, abs=1e-12)
            assert p == pytest.approx(math.sqrt(2) * gamma.imag, abs=1e-12)

    def test_zero_coupling_branches_coincide(self):
        a = trajectory(ramsey(1.0), 0.0, 2.0, 0, 20, alpha=0.5)
        b = trajectory(ramsey(1.0), 0.0, 2.0, 1, 20, alpha=0.5)
        assert a == b

    def test_final_separation_ordering(self):
        # Ramsey > HahnEcho > CarrPurcell2 at fixed small omega tau
        g, omega = 1.0, 1.0
        tau = 0.2 * math.pi / omega
        seps = []
        for mk in (ramsey, hahn_echo, carr_purcell2):
            st = evolve_state(mk(tau), g, omega, 0)
            seps.append(abs(st.branch0.alpha - st.branch1.alpha))
        assert seps[0] > seps[1] > seps[2]

    def test_rejects_short_sampling(self):
        with pytest.raises(ValueError):
            trajectory(ramsey(1.0), 1.0, 1.0, 0, 1)


class TestMagnusPhases:
    def test_no_force(self):
        ph = magnus_phases(hahn_echo(1.0), 0.7, 2.0)
        assert ph.displacement_force == 0
        assert ph.force_phase_per_sz == 0.0
        beta, _ = pulses.residual_displacement(hahn_echo(1.0), 0.7, 2.0)
        assert ph.displacement_per_sz == beta
        assert ph.squeezing_zeta == pulses.squeezing_parameter(hahn_echo(1.0), 0.7, 2.0)

    def test_constant_force_phase_is_dc_phase(self):
        g, omega, f = 0.9, 1.6, 0.25
        seq = carr_purcell2(1.4)
        ph = magnus_phases(seq, g, omega, force=([0.0], [f]))
        assert ph.force_phase_per_sz == pytest.approx(
            f * pulses.dc_phase(seq, g, omega), rel=1e-12)

    def test_constant_force_displacement(self):
        # -f(a+a^dag) drive: da/dt = -i omega a + i f, so the final
        # displacement is f (1 - e^{-i omega tau}) / omega
        omega, f, tau = 1.6, 0.25, 1.4
        ph = magnus_phases(ramsey(tau), 0.0, omega, force=([0.0], [f]))
        expect = f * (1 - cmath.exp(-1j * omega * tau)) / omega
        assert ph.displacement_force == pytest.approx(expect, rel=1e-12)

    def test_boxcar_force_matches_quadrature(self):
        from scipy.integrate import quad

        g, omega, f = 1.2, 2.1, 0.4
        seq = hahn_echo(1.0)
        a, b = 0.2, 0.7
        ph = magnus_phases(seq, g, omega, force=([a, b], [f]))
        expect = f * quad(lambda s: pulses.phase_kernel(seq, g, omega, s),
                          a, b, points=[0.5])[0]
        assert ph.force_phase_per_sz == pytest.approx(expect, rel=1e-9)

    def test_spectral_route_matches_time_route(self):
        # narrow Gaussian pulse given as a time series and as its spectrum
        g, omega = 0.8, 2 * math.pi
        seq = carr_purcell2(2.0)
        t0, sig, f0 = 0.9, 0.05, 0.3

        edges = np.linspace(0.0, 2.0, 4001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        values = f0 * np.exp(-((mids - t0) ** 2) / (2 * sig**2))
        ph_time = magnus_phases(seq, g, omega, force=(list(edges), list(values)))

        def spectrum(nu):
            return (f0 * sig * math.exp(-(sig * nu) ** 2 / 2)
                    * cmath.exp(1j * nu * t0))

        ph_spec = magnus_phases(seq, g, omega, force=spectrum)
        assert ph_spec.force_phase_per_sz == pytest.approx(
            ph_time.force_phase_per_sz, rel=1e-5)

    def test_observable_phase_is_four_kernel_integrals(self):
        # relative branch phase between forced and unforced evolutions
        g, omega, f = 0.7, 1.9, 0.15
        seq = hahn_echo(1.0)
        forced = evolve_state(seq, g, omega, 0, force=([0.0, seq.tau], [f]))
        free = evolve_state(seq, g, omega, 0)
        dphi = forced.observable_phase() - free.observable_phase()
        kernel_int = f * pulses.dc_phase(seq, g, omega)
        # the -f(a+a^dag) coupling makes the coherence phase -4 int K(s) f ds;
        # all sensitivity quantities use phi^2, so only the factor 4 matters
        assert dphi == pytest.approx(-4 * kernel_int, rel=1e-10)

    def test_coarse_force_series_rejected(self):
        seq = ramsey(10.0)
        edges = list(np.linspace(0, 10.0, 9))
        values = [0.1] * 8
        with pytest.raises(ValueError):
            magnus_phases(seq, 1.0, 2 * math.pi, force=(edges, values))


def _restepped_from_zero(seq, g, omega, spin_branch, n_samples, alpha):
    """Trajectory samples re-stepped from t = 0 for every sample."""
    sign = +1 if spin_branch == 0 else -1
    out = []
    for t in np.linspace(0.0, seq.total_time, n_samples):
        theta, gamma = 0.0, complex(alpha)
        for a, b, s in pulses.segments(seq):
            if a >= t:
                break
            theta, gamma = dynamics.segment_step(theta, gamma, sign * s * g, omega, min(b, t) - a)
        out.append((float(t), math.sqrt(2) * gamma.real, math.sqrt(2) * gamma.imag))
    return out


class TestTrajectoryExact:
    @pytest.mark.parametrize("seq", [
        ramsey(1.0), hahn_echo(1.0), carr_purcell2(1.0),
        custom(1.0, [0.125, 0.25, 0.5, 0.625, 0.875]),
    ], ids=lambda s: s.kind.value)
    @pytest.mark.parametrize("n_samples", [9, 50, 333])
    def test_matches_restepping_from_zero(self, seq, n_samples):
        if n_samples == 9:  # every pulse edge is a sample
            assert set(seq.pulse_times) <= set(np.linspace(0.0, 1.0, 9).tolist())
        for branch in (0, 1):
            got = trajectory(seq, 1.3, 2.0, branch, n_samples, alpha=0.2 - 0.1j)
            assert got == _restepped_from_zero(seq, 1.3, 2.0, branch, n_samples, 0.2 - 0.1j)

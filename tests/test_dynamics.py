"""Exact branch dynamics: coherent evolution, composition, force phases."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinlev import dynamics, pulses
from spinlev.dynamics import evolve_state, trajectory
from spinlev.pulses import carr_purcell2, custom, force_response, hahn_echo, ramsey
from spinlev.units import ParameterError

from conftest import kernel_at


def _pulseless_branches(alpha, g, omega, tau):
    """Free evolution for tau, branches 0 and 1:
    (alpha +/- g/omega) e^{-i omega tau} -/+ g/omega."""
    d, rot = g / omega, cmath.exp(-1j * omega * tau)
    return (alpha + d) * rot - d, (alpha - d) * rot + d


def _pulsed_branches(alpha, g, omega, tau):
    """One pi pulse at tau/2, branches 0 and 1: (alpha +/- g/omega) e^{-i omega tau}
    +/- g/omega -/+ (2g/omega) e^{-i omega tau/2}."""
    d, rot, half = g / omega, cmath.exp(-1j * omega * tau), cmath.exp(-0.5j * omega * tau)
    return (alpha + d) * rot + d - 2 * d * half, (alpha - d) * rot - d + 2 * d * half


def _boxcar(seq, force):
    """A boxcar (edges, values), zero outside [edges[0], edges[-1]] and with tau
    closing the last edge where there are as many edges as values, as the
    (times, values) series force_response takes."""
    edges, values = list(force[0]), list(force[1])
    if len(edges) == len(values):
        edges.append(seq.total_time)
    return [0.0, *edges, max(edges[-1], seq.total_time)], [0.0, *values, 0.0]


class TestBranchStates:
    @pytest.mark.parametrize("alpha,g,omega,tau", [(0.8 + 0.3j, 0.0, 2.0, 1.3), (0.2 + 0.1j, 0.7, 1.0, 2.9),
                                                   (0.3j, 1.1, 2.0, 0.7), (0.0, 1.0, 1.0, 1e-3)])
    def test_single_pulse_closed_forms(self, alpha, g, omega, tau):
        for seq, closed in ((ramsey(tau), _pulseless_branches), (hahn_echo(tau), _pulsed_branches)):
            st = evolve_state(seq, g, omega, alpha)
            for branch, expect in zip((st.branch0, st.branch1), closed(alpha, g, omega, tau)):
                assert branch.alpha == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_zero_coupling_free_rotation(self):
        alpha, omega, tau = 0.8 + 0.3j, 2.0, 1.3
        st = evolve_state(ramsey(tau), 0.0, omega, alpha)
        expect = alpha * cmath.exp(-1j * omega * tau)
        for branch in (st.branch0, st.branch1):
            assert branch.alpha == pytest.approx(expect, rel=1e-14)
        assert st.observable_phase() == pytest.approx(0.0, abs=1e-14)

    def test_pulseless_circular_arc(self):
        # each branch orbits its displaced center at radius |alpha +/- g/omega|
        g, omega, alpha = 0.7, 1.0, 0.2 + 0.1j
        d = g / omega
        centers = {0: -d, 1: +d}
        for tau in np.linspace(0.1, 6.0, 7):
            st = evolve_state(ramsey(tau), g, omega, alpha)
            for spin, branch in enumerate((st.branch0, st.branch1)):
                r = abs(branch.alpha - centers[spin])
                assert r == pytest.approx(abs(alpha - centers[spin]), rel=1e-12)

    def test_equal_branch_weights(self):
        st = evolve_state(hahn_echo(0.7), 1.1, 2.0, 0.3j)
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
        for spin, (start, end) in enumerate(((first.branch0, full.branch0), (first.branch1, full.branch1))):
            # the other branch of the walk from this branch's state takes the flipped sign
            theta, gamma = dynamics.branch_states(rest, g, omega, start.alpha)[2][1 - spin][-1]
            assert gamma == pytest.approx(end.alpha, rel=1e-12, abs=1e-12)

    def test_echo_refocusing_order(self):
        # spin-conditioned displacement: Ramsey O(wt), echo O((wt)^2)
        g, omega = 1.0, 1.0
        seps = {}
        for tau in (1e-2, 1e-3):
            r = evolve_state(ramsey(tau), g, omega, 0)
            e = evolve_state(hahn_echo(tau), g, omega, 0)
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
        st = evolve_state(hahn_echo(tau), g, omega, 0)
        for spin, branch in enumerate((st.branch0, st.branch1)):
            pts = trajectory(hahn_echo(tau), g, omega, spin, 50)
            t, x, p = pts[-1]
            gamma = branch.alpha
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


class TestForceFunctionals:
    def test_constant_force_phase_is_dc_phase(self):
        g, omega, f = 0.9, 1.6, 0.25
        seq = carr_purcell2(1.4)
        phase, _ = force_response(seq, g, omega, _boxcar(seq, ([0.0], [f])))
        assert phase == pytest.approx(f * pulses.dc_phase(seq, g, omega), rel=1e-12)

    def test_constant_force_displacement(self):
        # -f(a+a^dag) drive: da/dt = -i omega a + i f, so the final
        # displacement is f (1 - e^{-i omega tau}) / omega
        omega, f, tau = 1.6, 0.25, 1.4
        _, disp = force_response(ramsey(tau), 0.0, omega, _boxcar(ramsey(tau), ([0.0], [f])))
        expect = f * (1 - cmath.exp(-1j * omega * tau)) / omega
        assert disp == pytest.approx(expect, rel=1e-12)

    def test_boxcar_force_matches_quadrature(self):
        from scipy.integrate import quad

        g, omega, f = 1.2, 2.1, 0.4
        seq = hahn_echo(1.0)
        a, b = 0.2, 0.7
        phase, _ = force_response(seq, g, omega, _boxcar(seq, ([a, b], [f])))
        expect = f * quad(lambda s: kernel_at(seq, g, omega, s),
                          a, b, points=[0.5])[0]
        assert phase == pytest.approx(expect, rel=1e-9)

    def test_spectral_route_matches_time_route(self):
        # narrow Gaussian pulse given as a time series and as its spectrum;
        # the spectral route is Re int chi(nu) f(nu) dnu by quadrature, with
        # f(nu) = (2 pi)^{-1/2} int f(t) e^{i nu t} dt
        from scipy.integrate import quad

        g, omega = 0.8, 2 * math.pi
        seq = carr_purcell2(2.0)
        t0, sig, f0 = 0.9, 0.05, 0.3

        edges = np.linspace(0.0, 2.0, 4001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        values = f0 * np.exp(-((mids - t0) ** 2) / (2 * sig**2))
        phase_time, _ = force_response(seq, g, omega, _boxcar(seq, (list(edges), list(values))))

        def spectrum(nu):
            return (f0 * sig * math.exp(-(sig * nu) ** 2 / 2)
                    * cmath.exp(1j * nu * t0))

        def integrand(nu):
            return (pulses.spectral_response(seq, g, omega, nu) / math.sqrt(2 * math.pi)
                    * spectrum(nu)).real

        cut = 400.0 * max(omega, 2 * math.pi / seq.total_time)
        phase_spec = quad(integrand, -cut, cut, points=[-omega, 0.0, omega], limit=800)[0]
        assert phase_spec == pytest.approx(phase_time, rel=1e-5)

    @pytest.mark.parametrize("force", [lambda nu: 0.1, 0.1, ([0.0, 1.0], [0.1], [0.2])],
                             ids=["callable", "scalar", "three_parts"])
    def test_force_other_than_a_series_rejected(self, force):
        for route in (lambda: force_response(hahn_echo(1.0), 0.7, 2.0, force),
                      lambda: evolve_state(hahn_echo(1.0), 0.7, 2.0, 0j, force)):
            with pytest.raises(ValueError, match=r"force must be a series \(times, values\)"):
                route()

    def test_observable_phase_is_four_kernel_integrals(self):
        # relative branch phase between forced and unforced evolutions
        g, omega, f = 0.7, 1.9, 0.15
        seq = hahn_echo(1.0)
        forced = evolve_state(seq, g, omega, 0, force=([0.0, seq.total_time], [f]))
        free = evolve_state(seq, g, omega, 0)
        dphi = forced.observable_phase() - free.observable_phase()
        kernel_int = f * pulses.dc_phase(seq, g, omega)
        # the -f(a+a^dag) coupling makes the coherence phase -4 int K(s) f ds;
        # all sensitivity quantities use phi^2, so only the factor 4 matters
        assert dphi == pytest.approx(-4 * kernel_int, rel=1e-10)

    def test_coarse_force_series_rejected(self):
        # 8 steps of 1.25 against min(2 pi/omega, tau)/4 = 0.25, as a boxcar
        # and as the series itself
        seq = ramsey(10.0)
        edges = list(np.linspace(0, 10.0, 9))
        values = [0.1] * 8
        for force in (_boxcar(seq, (edges, values)), (edges, values)):
            with pytest.raises(ValueError, match="^force series under-sampled: step 1.25 exceeds 0.25$"):
                force_response(seq, 1.0, 2 * math.pi, force)

    def test_long_zero_stretches_around_a_fine_force_allowed(self):
        # 16 steps of 0.125 < 0.25 from the first nonzero value to the last;
        # the zero lead-in and tail, 3 and 5 long, are not steps of the force,
        # which equals the same force on a uniform 0.125 grid
        seq, omega = ramsey(10.0), 2 * math.pi
        values = np.linspace(0.1, 0.4, 16).tolist()
        padded = force_response(seq, 1.0, omega, ([0.0, *np.linspace(3.0, 5.0, 17).tolist(), 10.0],
                                                  [0.0, *values, 0.0]))
        uniform = force_response(seq, 1.0, omega, (np.linspace(0.0, 10.0, 81).tolist(),
                                                   [0.0] * 24 + values + [0.0] * 40))
        assert padded == pytest.approx(uniform, rel=1e-12)

    def test_zero_stretch_inside_the_force_counted(self):
        # the zero step of length 1 lies between nonzero values: 5 steps, one > 0.25
        with pytest.raises(ValueError, match="^force series under-sampled: step 1 exceeds 0.25$"):
            force_response(ramsey(10.0), 1.0, 2 * math.pi, ([0.0, 3.0, 3.1, 4.1, 4.2, 4.3, 4.4, 10.0],
                                                           [0.0, 0.1, 0.0, 0.2, 0.3, 0.4, 0.0]))

    def test_zero_omega_with_a_fine_force_grid_rejected(self):
        # the resolution check divides by omega, which raised ZeroDivisionError
        seq = ramsey(1.0)
        with pytest.raises(ValueError, match="omega must be finite and > 0"):
            force_response(seq, 0.5, 0.0, _boxcar(seq, (np.linspace(0.0, 1.0, 9).tolist(), [0.1] * 8)))


def _restepped_from_zero(seq, g, omega, spin_branch, n_samples, alpha):
    """Trajectory samples re-stepped from t = 0 for every sample."""
    sign = +1 if spin_branch == 0 else -1
    out = []
    for t in np.linspace(0.0, seq.total_time, n_samples):
        theta, gamma = 0.0, complex(alpha)
        for a, b, k, _ in zip(*(x.tolist() for x in pulses.pieces(seq))):
            if a >= t:
                break
            theta, gamma = dynamics.segment_step(theta, gamma, sign * (-1) ** k * g, omega,
                                                 min(b, t) - a)
        out.append((float(t), math.sqrt(2) * gamma.real, math.sqrt(2) * gamma.imag))
    return out


class TestTrajectoryExact:
    @pytest.mark.parametrize("seq", [
        ramsey(1.0), hahn_echo(1.0), carr_purcell2(1.0),
        custom(1.0, [0.125, 0.25, 0.5, 0.625, 0.875]),
    ], ids=["ramsey", "hahn_echo", "carr_purcell2", "custom"])
    @pytest.mark.parametrize("n_samples", [9, 50, 333])
    def test_matches_restepping_from_zero(self, seq, n_samples):
        if n_samples == 9:  # every pulse edge is a sample
            assert set(seq.pulse_times) <= set(np.linspace(0.0, 1.0, 9).tolist())
        for branch in (0, 1):
            got = trajectory(seq, 1.3, 2.0, branch, n_samples, alpha=0.2 - 0.1j)
            assert got == _restepped_from_zero(seq, 1.3, 2.0, branch, n_samples, 0.2 - 0.1j)


def _stepped_per_sample(seq, g, omega, spin_branch, n_samples, alpha):
    """Trajectory samples by one segment_step call per sample from the piece
    state of branch_states, the loop that trajectory's array pass replaced."""
    t_b, c, states = dynamics.branch_states(seq, g, omega, complex(alpha))
    c, states = c[spin_branch], states[spin_branch]
    out = []
    ts = np.linspace(0.0, seq.total_time, n_samples)
    for t, k in zip(ts.tolist(), np.searchsorted(t_b[:-1], ts).tolist()):  # k pieces begin before t
        gamma = states[0][1]
        if k:
            _, gamma = dynamics.segment_step(*states[k - 1], c[k - 1], omega, min(t_b[k], t) - t_b[k - 1])
        out.append((t, math.sqrt(2) * gamma.real, math.sqrt(2) * gamma.imag))
    return out


def _bits(rows):
    """Rows of floats as hex strings, so -0.0 and 0.0 differ."""
    return [tuple(x.hex() for x in row) for row in rows]


@st.composite
def _sampled_pulse_lists(draw):
    """(sequence, n_samples): random pulse times in (0, tau), some of them on
    sample times, so a sample can fall on a pulse edge as well as at tau."""
    tau = draw(st.floats(1e-3, 50.0))
    n_samples = draw(st.integers(2, 300))
    inner = np.linspace(0.0, tau, n_samples).tolist()[1:-1]
    on_samples = draw(st.lists(st.sampled_from(inner), max_size=4)) if inner else []
    fractions = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=6))
    return custom(tau, sorted({*on_samples, *(f * tau for f in fractions)})), n_samples


class TestTrajectoryArrayPass:
    @settings(max_examples=300, deadline=None)
    @given(run=_sampled_pulse_lists(), g_over_omega=st.floats(-3.0, 3.0),
           omega=st.floats(0.1, 1e3), branch=st.sampled_from([0, 1]),
           re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
    @example(run=(carr_purcell2(1.0), 9), g_over_omega=1.3, omega=2.0, branch=1, re=-0.0, im=-0.0)
    def test_equals_per_sample_steps_bit_for_bit(self, run, g_over_omega, omega, branch, re, im):
        seq, n_samples = run
        g, alpha = g_over_omega * omega, complex(re, im)
        got = trajectory(seq, g, omega, branch, n_samples, alpha)
        assert _bits(got) == _bits(_stepped_per_sample(seq, g, omega, branch, n_samples, alpha))
        assert got[-1][0] == seq.total_time


class TestTrajectoryCoupling:
    """trajectory steps through branch_states; a bad g or omega raises the
    ValueError of branch_states instead of NaN rows or a ZeroDivisionError."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_g(self, bad):
        with pytest.raises(ValueError, match="g must be finite") as traj:
            trajectory(hahn_echo(1.0), bad, 1.0, 0, 3)
        with pytest.raises(ValueError) as branch:
            dynamics.branch_states(hahn_echo(1.0), bad, 1.0, 0j)
        assert str(traj.value) == str(branch.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_omega(self, bad):
        with pytest.raises(ValueError, match="omega must be finite and > 0") as traj:
            trajectory(hahn_echo(1.0), 0.5, bad, 1, 3)
        with pytest.raises(ValueError) as branch:
            dynamics.branch_states(hahn_echo(1.0), 0.5, bad, 0j)
        assert str(traj.value) == str(branch.value)

    def test_zero_coupling_still_allowed(self):
        assert trajectory(hahn_echo(1.0), 0.0, 1.0, 0, 3)[-1] == (1.0, 0.0, 0.0)


class TestBranchLabels:
    """A branch is 0 or 1; any other label raises instead of falling back
    to branch 1."""

    @pytest.mark.parametrize("branch", [7, -1, 2])
    def test_trajectory_branch(self, branch):
        with pytest.raises(ValueError, match="spin_branch must be 0 or 1"):
            trajectory(hahn_echo(1.0), 0.5, 1.0, branch, 3)


class TestNonFiniteInput:
    """NaN or inf in a force value or the start amplitude raises where it
    enters, instead of returning an all-NaN state with numpy warnings."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_evolve_state_force(self, bad):
        with pytest.raises(ValueError, match="force values must be finite"):
            evolve_state(hahn_echo(1.0), 0.5, 1.0, 0j, force=([0.0, 1.0], [bad]))

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_evolve_state_alpha(self, alpha):
        # one check in branch_states; trajectory returned NaN rows
        seq = hahn_echo(1.0)
        for route in (lambda: evolve_state(seq, 0.5, 1.0, alpha),
                      lambda: trajectory(seq, 0.5, 1.0, 0, 3, alpha=alpha),
                      lambda: dynamics.branch_states(seq, 0.5, 1.0, alpha),
                      lambda: dynamics.branch_states(seq, 0.5, 1.0, np.array([0.5, alpha]))):
            with pytest.raises(ValueError, match="alpha must be finite"):
                route()

    @pytest.mark.parametrize("alpha", [1e308 + 0j, np.array([1e308 + 0j]), np.array([0.5, 1e308j])])
    def test_overflow_in_the_walk(self, alpha):
        # an array of alpha overflowed with a numpy RuntimeWarning before the
        # final-state check; now it raises as a scalar alpha does
        with pytest.raises(ParameterError, match=r"^branch state is not finite at g = 10\.0, omega = 1\.0, "
                                                 r"tau = 1\.0$"):
            dynamics.branch_states(hahn_echo(1.0), 10.0, 1.0, alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["g", "omega"])
    def test_coupling_and_frequency(self, name, bad):
        args = {"g": 0.5, "omega": 1.0, name: bad}
        seq = hahn_echo(1.0)
        for route in (evolve_state, lambda *a: force_response(*a, _boxcar(seq, ([0.0], [0.1])))):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                route(seq, args["g"], args["omega"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_force_response_force(self, bad):
        seq = hahn_echo(1.0)
        with pytest.raises(ValueError, match="force values must be finite"):
            force_response(seq, 0.5, 1.0, _boxcar(seq, ([0.0, 1.0], [bad])))



def _reference_force_segments(seq, force):
    """The pulse/force merge that pulses.pieces replaced, kept as a
    reference: (a, b, (sign, f)) per piece."""
    segs = [(a, b, (-1) ** k) for a, b, k, _ in zip(*(x.tolist() for x in pulses.pieces(seq)))]
    if force is None:
        return [(a, b, (s, 0.0)) for a, b, s in segs]
    times, values = pulses._checked_force(seq, force)
    edges = sorted(set(t for t in times.tolist() if t < seq.total_time)
                   | {a for a, _, _ in segs} | {seq.total_time})
    out = []
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        s = int(1 - 2 * (pulses.segment_index(seq, a) % 2))
        idx = int(np.searchsorted(times, mid, side="right")) - 1
        out.append((a, b, (s, float(values[min(idx, len(values) - 1)]))))
    return out


def _reference_int_exp(z, a, b, exp):
    """int_a^b e^{z s} ds as the old pulses._int_exp formed it, through
    (e^z - 1)/z and its series below |z| = 1e-5 (the old pulses._phi1); in
    mpmath arithmetic the closed form has digits to spare and is kept."""
    zd = z * (b - a)
    if abs(zd) < 1e-5 and isinstance(zd, complex):
        phi1 = 1.0 + zd / 2.0 + zd * zd / 6.0 + zd * zd * zd / 24.0
    else:
        phi1 = (exp(zd) - 1.0) / zd
    return exp(z * a) * (b - a) * phi1


def _reference_kernel_pieces(seq, g, omega, exp, num):
    """The old pulses._kernel_pieces: on segment k with sign s_k,
    K(s) = K0_k + Im(R_k e^{-i omega s}), K0_k = s_k g / omega."""
    edges = [num(t) for t in (0.0, *seq.pulse_times, seq.total_time)]
    pieces = []
    tail = 0j
    for k in reversed(range(len(edges) - 1)):
        a, b, s = edges[k], edges[k + 1], (-1) ** k
        r = (g / (1j * omega)) * (s * exp(1j * omega * b)) + tail
        pieces.append((a, b, s * g / omega, r))
        tail = r - (g / (1j * omega)) * (s * exp(1j * omega * a))
    pieces.reverse()
    return pieces


def _reference_force_loop(seq, g, omega, force, exp=cmath.exp, num=float):
    """(displacement, phase) of the per-interval, per-kernel-piece loop that
    force_response replaced, kept as a reference; with exp=mp.exp and
    num=mp.mpf it runs in mpmath arithmetic."""
    g, omega, tau = num(g), num(omega), num(seq.total_time)
    times, values = [num(t) for t in force[0]], [num(f) for f in force[1]]
    if len(times) == len(values):
        times.append(tau)
    disp, phase = 0j, num(0.0)
    kernel = _reference_kernel_pieces(seq, g, omega, exp, num)
    for a, b, f in zip(times, times[1:], values):
        b = min(b, tau)
        if b <= a:
            continue
        disp += 1j * f * exp(-1j * omega * tau) * _reference_int_exp(1j * omega, a, b, exp)
        for pa, pb, k0, r in kernel:
            lo, hi = max(a, pa), min(b, pb)
            if hi <= lo:
                continue
            phase += f * (k0 * (hi - lo) + (r * _reference_int_exp(-1j * omega, lo, hi, exp)).imag)
    return disp, phase


def _phase_rounding_bound(seq, g, omega, force):
    """A bound on the rounding error of force_response's phase. K is stepped
    back from tau, and each step rounds terms of size |K| + |K'/omega| + 2/omega
    at the pulse edges it passes, so over each force piece the phase carries a
    few ulps of |g f| (b - a) times the largest such size from the piece's
    segment to tau, once per edge stepped. Unlike a bound relative to
    int |K f|, it holds where the piece lies near a zero of K."""
    t, k, p = pulses._kernel_ends(seq, 1.0, omega)
    sizes = np.abs(k) + np.abs(p) + 2.0 / omega
    largest = np.maximum.accumulate(sizes[::-1])[::-1]  # entry j: max over edges j, ..., tau
    start, end, seg, f = pulses.pieces(seq, _boxcar(seq, force))
    terms = np.abs(g * f) * (end - start) * largest[seg] * (t.size - seg)
    return 4 * np.finfo(float).eps * float(np.sum(terms))


_UNIT = st.floats(1e-6, 1.0 - 1e-6)
_FORCE = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _sequences(draw):
    """A custom sequence with 0-64 pulses at arbitrary times."""
    tau = draw(st.floats(0.3, 6.0))
    n = draw(st.integers(0, 64))
    return custom(tau, sorted({tau * u for u in draw(st.lists(_UNIT, min_size=n, max_size=n))}))


@st.composite
def _forced_runs(draw):
    """A sequence and, in most cases, a force series whose knots may repeat,
    fall on pulse times or run past tau, with one value per interval or one
    per knot."""
    seq = draw(_sequences())
    tau = seq.total_time
    if draw(st.integers(0, 3)) == 0:
        return seq, None
    inner = [tau * u for u in draw(st.lists(_UNIT, max_size=12))]
    if seq.pulse_times:
        inner += draw(st.lists(st.sampled_from(seq.pulse_times), max_size=4))
    knots = [0.0, *sorted(inner), tau * draw(st.sampled_from([1.0, 1.5]))]
    n_values = len(knots) - 1 + draw(st.integers(0, 1))
    values = draw(st.lists(_FORCE, min_size=n_values, max_size=n_values))
    return seq, (knots, values)


def _hex(x):
    """A float or complex as the hex strings of its parts, so -0.0 and 0.0 differ."""
    return (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x.hex()


class TestOneWalk:
    @settings(max_examples=300, deadline=None)
    @given(run=_forced_runs(), g=st.floats(-5.0, 5.0), omega=st.floats(0.1, 10.0),
           re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
    @example(run=(hahn_echo(1.0), ([0.0, 0.4, 1.0], [0.2, -0.1])), g=0.0, omega=1.0, re=-0.0, im=0.0)
    def test_branch_one_is_branch_zero_at_minus_g(self, run, g, omega, re, im):
        # -(-1)^k g and (-1)^k (-g) round the same, so the walk's branch 1
        # is branch 0 of the walk at -g, force or not, bit for bit
        seq, force = run
        t, c, states = dynamics.branch_states(seq, g, omega, complex(re, im), force)
        t_neg, c_neg, states_neg = dynamics.branch_states(seq, -g, omega, complex(re, im), force)
        assert list(map(_hex, t)) == list(map(_hex, t_neg))
        assert list(map(_hex, c[1])) == list(map(_hex, c_neg[0]))
        assert [tuple(map(_hex, s)) for s in states[1]] == [tuple(map(_hex, s)) for s in states_neg[0]]


class TestPieces:
    """pulses.pieces, the one piece list every exact route runs on."""

    @settings(max_examples=300, deadline=None)
    @given(_forced_runs())
    def test_tiles_segments_and_reads_the_force(self, run):
        seq, force = run
        start, end, seg, f = pulses.pieces(seq, force)
        tau = seq.total_time
        assert start[0] == 0.0 and end[-1] == tau
        assert np.array_equal(start[1:], end[:-1]) and np.all(end > start)
        edges = (0.0, *seq.pulse_times, tau)
        for a, b, k, fk in zip(start.tolist(), end.tolist(), seg.tolist(), f.tolist()):
            assert edges[k] <= a and b <= edges[k + 1]  # inside one pulse segment
            if force is None:
                assert fk == 0.0
            else:  # the value of the interval that holds the piece; the last past the last knot
                knots, values = force
                j = max(i for i, t in enumerate(knots) if t <= a)
                assert knots[j] <= a and (j + 1 == len(knots) or b <= knots[j + 1])
                assert fk == values[min(j, len(values) - 1)]
                mid = (a + b) / 2
                if mid < b:  # the series value at the midpoint
                    assert fk == values[min(max(i for i, t in enumerate(knots) if t <= mid),
                                            len(values) - 1)]

    @settings(max_examples=300, deadline=None)
    @given(_forced_runs())
    def test_matches_the_merge_it_replaced_bit_for_bit(self, run):
        # the old merge read f at the midpoint, which on a piece one ulp wide
        # can round onto the next knot and read the next interval; f is
        # compared wherever the midpoint lies inside the piece
        seq, force = run
        start, end, seg, f = (x.tolist() for x in pulses.pieces(seq, force))
        ref = _reference_force_segments(seq, force)
        assert len(ref) == len(start)
        for a, b, k, fk, (ra, rb, (rs, rf)) in zip(start, end, seg, f, ref):
            assert (a.hex(), b.hex(), (-1) ** k) == (ra.hex(), rb.hex(), rs)
            if (a + b) / 2 < b:
                assert fk.hex() == rf.hex()

    @pytest.mark.parametrize("force", [([0.0, 0.7, 0.3, 1.0], [0.1, -0.2, 0.3]),
                                       ([0.0, math.nan, 1.0], [0.1, 0.2]),
                                       ([0.0, 0.5, math.inf], [0.1, 0.2])],
                             ids=["decreasing", "nan", "inf"])
    def test_bad_knots_rejected(self, force):
        for route in (lambda: pulses.pieces(hahn_echo(1.0), force),
                      lambda: evolve_state(hahn_echo(1.0), 0.7, 1.9, 0j, force),
                      lambda: force_response(hahn_echo(1.0), 0.7, 1.9, _boxcar(hahn_echo(1.0), force))):
            with pytest.raises(ValueError, match="force knots must be finite and must not decrease"):
                route()

    @pytest.mark.parametrize("values", [[], [0.1, 0.2, 0.3, 0.4]], ids=["none", "extra"])
    def test_value_count_checked(self, values):
        # one value per interval or per knot; an empty series raised IndexError
        # and extra values were dropped
        for route in (lambda: evolve_state(hahn_echo(1.0), 0.7, 1.9, 0j, ([0.0, 0.5, 1.0], values)),
                      lambda: pulses.pieces(hahn_echo(1.0), ([0.0, 0.5, 1.0], values))):
            with pytest.raises(ValueError, match="one value per interval or one per knot"):
                route()

    def test_boxcar_before_zero_rejected(self):
        # a boxcar is mapped onto a grid that starts at 0
        seq = hahn_echo(1.0)
        with pytest.raises(ValueError, match="force knots"):
            force_response(seq, 0.7, 1.9, _boxcar(seq, ([-0.2, 0.5], [0.1])))


# force values whose phase and displacement stay normal doubles: from a force
# of 2.2e-308 they come out subnormal (2e-311), where one ulp, 5e-324, is
# already more than 1e-13 of them
_NORMAL_FORCE = _FORCE.filter(lambda f: f == 0.0 or abs(f) >= 1e-200)


@st.composite
def _boxcar_runs(draw):
    """A sequence, g, omega and a boxcar force series (_boxcar): a
    few arbitrary edges, or a uniform grid fine enough for the resolution
    check, starting at or after 0 and ending before or after tau."""
    seq = draw(_sequences())
    tau = seq.total_time
    g, omega = draw(st.floats(0.05, 2.0)), draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        edges = sorted(tau * 1.3 * u for u in draw(st.lists(_UNIT, min_size=1, max_size=5)))
        if len(edges) == 1:  # a constant force from edges[0] < tau on
            return seq, g, omega, ([edges[0] / 1.3], [draw(_NORMAL_FORCE)])
    else:
        first, span = tau * draw(st.floats(0.0, 0.5)), tau * draw(st.floats(0.2, 1.0))
        limit = min(2 * math.pi / omega, tau) / 4
        n = math.ceil(span / limit) + draw(st.integers(4, 20))
        edges = np.linspace(first, first + span, n + 1).tolist()
    values = draw(st.lists(_NORMAL_FORCE, min_size=len(edges) - 1, max_size=len(edges) - 1))
    return seq, g, omega, (edges, values)


# a boxcar 1.3e-5 < s < 7.9e-5 where K ~ 1e-5: the double-precision nested
# loop was 3.2e-18 off the 40-digit phase, force_response 1.7e-21
_SMALL_KERNEL_BOXCAR = (custom(1.0, [0.5]), 1.0, 0.5, ([1.3000000000000001e-05, 7.9345703125e-05], [1.0]))
# a narrow boxcar where K ~ 4e-4 against kernel terms of order 1/omega: the
# phase is 7.75e-19 off the 40-digit loop, more than 1e-13 of int |K f|
_NEAR_KERNEL_ZERO = (custom(3.0, [0.75, 2.0734478947401818, 2.4910012219471107]), 1.0, 2.6187917312513456,
                     ([1.3710937500000002, 1.377256261940374], [1.0]))


class TestForceResponseOnPieces:
    # force_response takes K from pulses._kernel_ends and integrates each force
    # piece in closed form; the nested loop it replaced took K from the old
    # phasor pieces K0 + Im(R e^{-i omega s}), which cancel at small omega tau,
    # so the loop runs in 40-digit arithmetic here
    @settings(max_examples=300, deadline=None)
    @given(_boxcar_runs())
    @example(_SMALL_KERNEL_BOXCAR)
    @example(_NEAR_KERNEL_ZERO)
    def test_matches_the_nested_loop_it_replaced(self, run):
        mp = pytest.importorskip("mpmath")
        seq, g, omega, force = run
        got_phase, got_disp = force_response(seq, g, omega, _boxcar(seq, force))
        with mp.workdps(40):
            disp, phase = _reference_force_loop(seq, g, omega, force, mp.exp, mp.mpf)
            disp, phase = complex(disp), float(phase)
        edges = list(force[0]) + ([seq.total_time] if len(force[0]) == len(force[1]) else [])
        scale = sum(abs(f) * (min(b, seq.total_time) - min(a, seq.total_time))
                    for a, b, f in zip(edges, edges[1:], force[1]))
        assert abs(got_phase - phase) <= _phase_rounding_bound(seq, g, omega, force)
        # the displacement integral is now split at the pulse times as well
        assert abs(got_disp - disp) <= 1e-13 * max(abs(disp), scale)

    @settings(max_examples=25, deadline=None)
    @given(_boxcar_runs())
    @example(_SMALL_KERNEL_BOXCAR)
    @example(_NEAR_KERNEL_ZERO)
    def test_phase_matches_40_digits(self, run):
        mp = pytest.importorskip("mpmath")
        seq, g, omega, force = run
        with mp.workdps(40):
            _, ref = _reference_force_loop(seq, g, omega, force, mp.exp, mp.mpf)
        got = force_response(seq, g, omega, _boxcar(seq, force))[0]
        assert abs(got - float(ref)) <= _phase_rounding_bound(seq, g, omega, force)

"""Brute-force verification engine: Fock evolution, moments, Monte Carlo."""

import cmath
import dataclasses
import functools
import logging
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from spinlev import dynamics, oracle, pulses, witness
from spinlev.oracle import (
    CutoffError,
    JointState,
    OracleConfig,
    ResolutionError,
    branch_fidelity,
    coherent_vector,
    evolve,
    gaussian_noise_factor,
    initial_state,
    suggested_n_max,
    thermal_trajectories,
    witness_moments,
)
from spinlev.pulses import carr_purcell2, hahn_echo, ramsey
from spinlev.units import NaturalParams, ParameterError


def nat(g, omega, nbar=0.0, q=1e6):
    return NaturalParams(g=g, omega=omega, lam=2 * g / omega, nbar=nbar,
                         gamma=omega / q, x0=1.0, larmor=0.0)


class TestStateConstruction:
    def test_coherent_vector_norm_and_mean(self):
        v = coherent_vector(1.2 - 0.4j, 64)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        n_op = np.arange(65)
        assert float(n_op @ (np.abs(v) ** 2)) == pytest.approx(abs(1.2 - 0.4j) ** 2,
                                                               rel=1e-10)

    @pytest.mark.parametrize("alpha,n_max", [(0j, 12), (1.2 - 0.4j, 64), (-3.1 + 2.2j, 80),
                                             (8.5 + 7.0j, 290), (-12.2j, 290)])
    def test_coherent_vector_matches_recurrence_loop(self, alpha, n_max):
        # the loop coherent_vector used before it became one cumprod
        ref = np.zeros(n_max + 1, dtype=complex)
        ref[0] = math.exp(-abs(alpha) ** 2 / 2)
        for n in range(n_max):
            ref[n + 1] = ref[n] * alpha / math.sqrt(n + 1)
        assert np.max(np.abs(coherent_vector(alpha, n_max) - ref)) <= 1e-15

    def test_coherent_vector_rejects_underflowing_vacuum(self):
        # the loop returned an all-zero vector (norm 0.0) here
        with pytest.raises(ResolutionError, match="underflows"):
            coherent_vector(40, 2000)
        with pytest.raises(ResolutionError, match="underflows"):
            coherent_vector(38.0, 2000)  # e^{-722}: subnormal, precision lost
        assert np.linalg.norm(coherent_vector(37.0, 2000)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_coherent_vector_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_vector(alpha, 16)

    @pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, True, False, "3", None])
    def test_coherent_vector_n_max_must_be_a_nonnegative_integer(self, n_max):
        # -1 raised IndexError, 2.5 a numpy TypeError, and True gave a 2-entry state
        with pytest.raises(ValueError, match="^n_max must be an integer >= 0, got "):
            coherent_vector(0.5, n_max)

    def test_margins_report_tail_and_norm_drift(self):
        c = np.zeros((2, 11), dtype=complex)
        # 0.1 at the fourth-highest level counts, 0.05 at the fifth does not
        c[0, 0], c[1, 0], c[1, -4], c[0, -5] = 0.6, 0.6j, 0.1, 0.05
        tail, drift = JointState(c).margins()
        assert tail == pytest.approx(0.01, rel=1e-15)
        assert drift == pytest.approx(1.0 - math.sqrt(0.7325), rel=1e-14)
        with pytest.raises(CutoffError):
            JointState(c).check()
        c[1, -4] = c[0, -5] = 0.0
        c[0, 0] = c[1, 0] = math.sqrt(0.5)
        tail, drift = JointState(c).margins()
        assert tail == 0.0 and drift <= 1e-15
        JointState(c).check()

    def test_suggested_n_max_monotone(self):
        vals = [suggested_n_max(a) for a in (0.0, 1.0, 4.0, 25.0)]
        assert vals == sorted(vals)
        assert vals[0] >= 4

    def test_initial_state_invariants(self):
        st = initial_state(0.5j, 32)
        assert st.coeff.shape == (2, 33)
        assert np.linalg.norm(st.coeff) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [-3, 2.5, True])
    def test_initial_state_n_max_must_be_a_nonnegative_integer(self, n_max):
        # -3 raised numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match="^n_max must be an integer >= 0, got "):
            initial_state(0j, n_max)

    def test_cutoff_error_for_tiny_basis(self):
        st = initial_state(3.0, 12)
        with pytest.raises(CutoffError):
            evolve(st, nat(2.0, 1.0), ramsey(1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n_trajectories=0)
        assert OracleConfig(n_trajectories=np.int64(150)).n_trajectories == 150

    @pytest.mark.parametrize("n", [150.5, 100.0, 0, -3, math.nan, True])
    def test_n_trajectories_must_be_a_positive_integer(self, n):
        # a float count once got through and failed inside numpy's sampling
        with pytest.raises(ValueError, match="n_trajectories must be an integer >= 1"):
            OracleConfig(n_trajectories=n)

    @pytest.mark.parametrize("seed", [-1, 2**128, math.nan, 1.7, 2.0, True, False])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            OracleConfig(seed=seed)

    def test_seed_range_ends(self):
        assert OracleConfig(seed=0).seed == 0
        assert OracleConfig(seed=2**128 - 1).seed == 2**128 - 1
        assert OracleConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def _steps(tau, n, seed):
    """Piecewise-constant force with n equal steps on [0, tau]."""
    values = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    return list(np.linspace(0.0, tau, n + 1)), list(values)


OFF_GRID = pulses.custom(3.0, [0.37, 1.1, 2.9])  # pulses between 4096-step grid points

# (sequence, g/omega, force): knots on and off the pulse edges, up to 256 steps
FORCED_CASES = [
    (hahn_echo(1.5), 0.5, ([0.0, 1.5], [0.3])),
    (carr_purcell2(2.0), 0.8, ([0.0, 0.3, 0.77, 1.21, 1.9, 2.0],
                               [0.2, -0.25, 0.1, 0.3, -0.15, -0.15])),
    (ramsey(math.pi), 0.5, _steps(math.pi, 256, 1)),
    (OFF_GRID, 1.0, _steps(3.0, 40, 2)),
]
FORCED_IDS = ["hahn_echo-constant", "carr_purcell2-knots", "ramsey-256_steps", "custom-40_steps"]


class TestEvolution:
    def test_free_oscillator(self):
        alpha, omega, tau = 0.7 + 0.2j, 2.0, 1.3
        st = evolve(initial_state(alpha, 48), nat(0.0, omega), ramsey(tau))
        closed = dynamics.evolve_state(ramsey(tau), 0.0, omega, alpha)
        assert branch_fidelity(closed, st) > 1 - 1e-10

    def test_ramsey_branch_amplitudes(self):
        g, omega, tau = 0.8, 1.0, 2.0
        st = evolve(initial_state(0, suggested_n_max((2 * g / omega) ** 2)),
                    nat(g, omega), ramsey(tau))
        closed = dynamics.evolve_state(ramsey(tau), g, omega, 0)
        assert branch_fidelity(closed, st) > 1 - 1e-8

    def test_pulsed_sequences(self):
        g, omega, tau = 1.0, 1.0, 0.9
        n_max = suggested_n_max((4 * g / omega) ** 2)
        for seq in (hahn_echo(tau), carr_purcell2(tau)):
            st = evolve(initial_state(0, n_max), nat(g, omega), seq)
            closed = dynamics.evolve_state(seq, g, omega, 0)
            assert branch_fidelity(closed, st) > 1 - 1e-8

    def test_norm_conservation(self):
        st = evolve(initial_state(0.3, 40), nat(0.7, 1.3), carr_purcell2(2.0))
        assert abs(np.linalg.norm(st.coeff) - 1.0) < 1e-10

    def test_truncation_monotonicity(self):
        g, omega, tau = 2.0, 1.0, math.pi
        closed = dynamics.evolve_state(ramsey(tau), g, omega, 0)
        errs = []
        for n_max in (48, 50, 52):  # the smallest even cutoffs with a top-4 tail below 1e-8
            st = evolve(initial_state(0, n_max), nat(g, omega), ramsey(tau))
            errs.append(1 - branch_fidelity(closed, st))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("seq,g,force", FORCED_CASES, ids=FORCED_IDS)
    def test_forced_matches_evolve_state(self, seq, g, force):
        # every piece between pulse edges and force knots is propagated exactly
        omega = 1.0
        f_max = max(abs(v) for v in force[1])
        n_max = suggested_n_max((4 * (g + f_max) / omega) ** 2)
        st = evolve(initial_state(0, n_max), nat(g, omega), seq, force=force)
        closed = dynamics.evolve_state(seq, g, omega, 0, force=force)
        assert 1 - branch_fidelity(closed, st) <= 1e-12

    def test_zero_force_equals_force_free(self):
        g, omega, tau = 0.8, 1.0, 2.0
        for seq in (ramsey(tau), hahn_echo(tau), carr_purcell2(tau), OFF_GRID):
            start = initial_state(0.3 - 0.2j, 48)
            free = evolve(start, nat(g, omega), seq)
            zero = evolve(start, nat(g, omega), seq, force=([0.0, seq.total_time], [0.0]))
            assert np.array_equal(free.coeff, zero.coeff)

    def test_forced_evolution_matches_closed_form(self):
        g, omega, tau, f = 0.5, 1.0, 1.0, 0.25
        force = ([0.0, tau], [f])
        closed = dynamics.evolve_state(carr_purcell2(tau), g, omega, 0, force=force)
        st = evolve(initial_state(0, 48), nat(g, omega), carr_purcell2(tau),
                    force=force)
        assert branch_fidelity(closed, st) > 1 - 1e-8


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_force_rejected_where_it_enters(self, bad, monkeypatch):
        def no_eigensystem(*args):
            raise AssertionError("an eigensystem was computed")

        monkeypatch.setattr(oracle, "_sector_eigensystem", no_eigensystem)
        with pytest.raises(ValueError, match="force values must be finite"):
            evolve(initial_state(0, 32), nat(0.5, 1.0), hahn_echo(1.5),
                   force=([0.0, 0.7, 1.5], [0.1, bad]))


    @pytest.mark.parametrize("force", [([0.0, 0.5], [0.2]), ([0.3, 1.5], [0.2]), ([], [])],
                             ids=["ends_before_tau", "starts_after_0", "empty"])
    def test_bad_force_grid_rejected_where_it_enters(self, force, monkeypatch):
        # the grid check of dynamics, so both exact routes see the same force
        def no_eigensystem(*args):
            raise AssertionError("an eigensystem was computed")

        monkeypatch.setattr(oracle, "_sector_eigensystem", no_eigensystem)
        for route in (lambda: evolve(initial_state(0, 32), nat(0.5, 1.0), hahn_echo(1.5), force=force),
                      lambda: dynamics.evolve_state(hahn_echo(1.5), 0.5, 1.0, 0j, force=force)):
            with pytest.raises(ValueError, match="force grid must start at 0 and cover"):
                route()

    @pytest.mark.parametrize("force", [([0.0, 0.7, 0.3, 1.5], [0.1, -0.2, 0.3]),
                                       ([0.0, math.nan, 1.5], [0.1, 0.2])],
                             ids=["decreasing", "nan"])
    def test_bad_force_knots_rejected_where_they_enter(self, force, monkeypatch):
        # the knot check of pulses.pieces, before any eigensystem
        def no_eigensystem(*args):
            raise AssertionError("an eigensystem was computed")

        monkeypatch.setattr(oracle, "_sector_eigensystem", no_eigensystem)
        with pytest.raises(ValueError, match="force knots must be finite and must not decrease"):
            evolve(initial_state(0, 32), nat(0.5, 1.0), hahn_echo(1.5), force=force)

    def test_constant_force_decomposes_each_coupling_once(self, monkeypatch):
        # a constant force over CPMG-8 meets the couplings g - f and g + f on
        # all nine segments; each is decomposed once, outside the shared cache
        decompose = oracle._sector_eigensystem.__wrapped__
        decomposed = []

        def counting(n_max, kappa):
            decomposed.append(kappa)
            return decompose(n_max, kappa)

        monkeypatch.setattr(oracle, "_sector_eigensystem", functools.lru_cache(maxsize=128)(counting))
        tau = 6.0
        seq = pulses.custom(tau, [tau * (2 * j - 1) / 16 for j in range(1, 9)])
        evolve(initial_state(0, 60), nat(0.8, 1.0), seq, force=([0.0, tau], [0.15]))
        assert sorted(decomposed) == pytest.approx([0.65, 0.95], rel=1e-15)
        assert oracle._sector_eigensystem.cache_info().currsize == 0

    def test_forced_couplings_stay_out_of_the_shared_cache(self):
        # forced pieces are decomposed for the call only; the force-free
        # piece of the same run still goes through the cache
        oracle._sector_eigensystem.cache_clear()
        tau = 2.0
        force = ([0.0, 0.5, 1.2, tau], [0.2, 0.0, -0.1])
        st_forced = evolve(initial_state(0, 40), nat(0.9, 1.0), carr_purcell2(tau), force=force)
        info = oracle._sector_eigensystem.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        closed = dynamics.evolve_state(carr_purcell2(tau), 0.9, 1.0, 0j, force=force)
        assert 1 - branch_fidelity(closed, st_forced) <= 1e-12


@functools.lru_cache(maxsize=64)
def _signed_eigensystem(n_max, kappa):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(np.arange(n_max + 1, dtype=float), kappa * np.sqrt(np.arange(1, n_max + 1)))


def reference_evolve(state, natural, seq, force=None):
    """The complex-matrix propagator evolve replaced: each sector on its own,
    with the eigensystem of its signed coupling and complex matrix-vector
    products; returns the final (2, n_max + 1) coefficients."""
    g, omega = natural.g, natural.omega
    times, values = ([0.0], [0.0]) if force is None else force
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    c = state.coeff.copy()
    for a, b, k, _ in zip(*(x.tolist() for x in pulses.pieces(seq))):
        s = (-1) ** k
        edges = [a, *np.unique(times[(times > a) & (times < b)]), b]
        for lo, hi in zip(edges, edges[1:]):
            idx = min(int(np.searchsorted(times, (lo + hi) / 2, side="right")) - 1, len(values) - 1)
            f = float(values[max(idx, 0)])
            for k, coupling in ((0, s * g - f), (1, -s * g - f)):
                evals, evecs = _signed_eigensystem(c.shape[1] - 1, coupling / omega)
                c[k] = evecs @ (np.exp(-1j * omega * evals * (hi - lo)) * (evecs.T @ c[k]))
    return c


def _propagate_columns(v, kappas, omega, dt):
    """e^{-i omega dt (n_hat + kappa_j x)} on column j of the C-contiguous v,
    for couplings of one |kappa|, as evolve ran it piece by piece."""
    evals, evecs = _signed_eigensystem(v.shape[0] - 1, abs(kappas[0]))
    odd = [j for j, k in enumerate(kappas) if k < 0]
    for j in odd:
        v[1::2, j] *= -1
    y = (evecs.T @ v.view(float)).view(complex)
    y *= np.exp(-1j * omega * evals * dt)[:, None]
    w = (evecs @ y.view(float)).view(complex)
    for j in odd:
        w[1::2, j] *= -1
    return w


def piece_loop_evolve(state, natural, seq, force=None):
    """The piece-by-piece loop evolve replaced, kept as its bit-for-bit
    reference: per piece a copy of the state, its own exp, the parity flips
    on the copy and scipy's eigh_tridiagonal; returns the final
    (2, n_max + 1) coefficients."""
    g, omega = natural.g, natural.omega
    psi = np.array(state.coeff.T, dtype=complex, order="C")
    for a, b, k, fk in zip(*(x.tolist() for x in pulses.pieces(seq, force))):
        s = (-1) ** k
        k0, k1 = (s * g - fk) / omega, (-s * g - fk) / omega
        if abs(k0) == abs(k1):
            psi = _propagate_columns(psi.copy(), (k0, k1), omega, b - a)
        else:
            out = np.empty_like(psi)
            out[:, :1] = _propagate_columns(psi[:, :1].copy(), (k0,), omega, b - a)
            out[:, 1:] = _propagate_columns(psi[:, 1:].copy(), (k1,), omega, b - a)
            psi = out
    return psi.T


def _max_alpha_sq(seq, g, omega, force):
    """Largest |gamma|^2 either branch reaches."""
    return oracle._max_branch_amplitude(seq, g, omega, force) ** 2


@st.composite
def custom_runs(draw, min_pulses=1):
    """A custom sequence with min_pulses-64 off-grid pulses, g/omega in
    [0.1, 2], and in half the cases a piecewise-constant force with knots off
    the pulse edges."""
    n_pulses = draw(st.integers(min_pulses, 64))
    tau = draw(st.floats(0.3, 4.0))
    unit = st.floats(1e-6, 1.0 - 1e-6)
    times = sorted({tau * u for u in draw(st.lists(unit, min_size=n_pulses, max_size=n_pulses))})
    g = draw(st.floats(0.1, 2.0))
    force = None
    if draw(st.booleans()):
        knots = sorted(set(tau * u for u in draw(st.lists(unit, min_size=1, max_size=12))) - set(times))
        values = draw(st.lists(st.floats(-0.3, 0.3), min_size=len(knots) + 1, max_size=len(knots) + 1))
        force = ([0.0, *knots, tau], values)
    return pulses.custom(tau, times), g, force


@st.composite
def mixed_runs(draw):
    """A custom_runs run with 0-64 pulses whose force, where there is one, is
    zero on some intervals, so force-free and forced pieces alternate, and
    with g = 0 in one run in five, where a forced piece propagates both
    sectors in one product."""
    seq, g, force = draw(custom_runs(min_pulses=0))
    if force is not None:
        knots, values = force
        force = (knots, [0.0 if draw(st.booleans()) else v for v in values])
    return seq, 0.0 if draw(st.integers(0, 4)) == 0 else g, force


class TestPhasesPastTheFloatRange:
    """A forced phase omega E dt past the float range leaves a NaN norm, which
    the segment check rejects as ResolutionError with no numpy warning, as it
    does a force-free one."""

    NATURAL = NaturalParams(g=0.5, omega=1e300, lam=1e-300, nbar=0.0, gamma=1.0, x0=1.0, larmor=0.0)

    @pytest.mark.parametrize("force", [([0.0, 1e10], [0.1]), ([0.0, 2e9, 1e10], [0.0, 0.1])],
                             ids=["forced", "mixed"])
    def test_resolution_error_only(self, force):
        with pytest.raises(ResolutionError, match="norm drifted by nan"):
            evolve(initial_state(0j, 40), self.NATURAL, pulses.custom(1e10, [5e9]), force)


class TestRealPropagator:
    """evolve runs real products on (n, 2) float views, with one eigensystem
    per +-kappa pair; it must reproduce the complex propagator it replaced."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(custom_runs())
    def test_matches_complex_reference_and_closed_form(self, run):
        seq, g, force = run
        omega = 1.0
        a2 = _max_alpha_sq(seq, g, omega, force)
        assume(a2 <= 40.0)
        n_max = suggested_n_max(a2)
        start = initial_state(0j, n_max)
        st_new = evolve(start, nat(g, omega), seq, force=force)
        ref = reference_evolve(start, nat(g, omega), seq, force=force)
        assert np.max(np.abs(st_new.coeff - ref)) <= 1e-12
        closed = dynamics.evolve_state(seq, g, omega, 0j, force)
        assert 1 - branch_fidelity(closed, st_new) <= 1e-12

    @pytest.mark.parametrize("kappas", [(0.7, -0.7), (-1.3, 1.3), (-0.4, -0.4), (0.3, -1.1), (-0.9, 0.2)])
    def test_negative_coupling_matches_direct_eigendecomposition(self, kappas):
        # n - kappa x = P (n + kappa x) P with P = (-1)^n: a kappa < 0 sector
        # uses the |kappa| eigensystem with its odd entries flipped. Each
        # pair is one Ramsey piece with g = omega (k0 - k1)/2 and a constant
        # f = -omega (k0 + k1)/2; as g >= 0, a pair with k0 < k1 runs with
        # its sectors swapped. The pairs cover a force-free piece, a forced
        # one with g = 0 (both sectors in one product) and forced ones with
        # the sectors apart.
        n_max, omega, dt = 60, 1.3, 0.9
        rng = np.random.default_rng(3)
        psi = np.zeros((n_max + 1, 2), dtype=complex)
        psi[:31] = rng.normal(size=(31, 2)) + 1j * rng.normal(size=(31, 2))
        psi /= np.linalg.norm(psi)
        swap = kappas[0] < kappas[1]
        k0, k1 = kappas[::-1] if swap else kappas
        start = JointState(np.ascontiguousarray((psi[:, ::-1] if swap else psi).T))
        force = ([0.0, dt], [-omega * (k0 + k1) / 2])
        got = evolve(start, nat(omega * (k0 - k1) / 2, omega), ramsey(dt), force=force).coeff.T
        got = got[:, ::-1] if swap else got
        x = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
        for j, kappa in enumerate(kappas):
            evals, evecs = np.linalg.eigh(np.diag(np.arange(n_max + 1.0)) + kappa * (x + x.T))
            direct = evecs @ (np.exp(-1j * omega * evals * dt) * (evecs.T @ psi[:, j]))
            assert np.max(np.abs(got[:, j] - direct)) <= 1e-13, (kappas, j)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(mixed_runs(), st.floats(0.5, 2.0))
    def test_bit_identical_to_the_piece_loop(self, run, omega):
        seq, g, force = run
        a2 = _max_alpha_sq(seq, g, omega, force)
        assume(a2 <= 40.0)
        alpha = 0.2 - 0.1j  # no exact zeros in the start
        start = initial_state(alpha, suggested_n_max((math.sqrt(a2) + abs(alpha)) ** 2))
        got = evolve(start, nat(g, omega), seq, force=force).coeff
        assert np.array_equal(got, piece_loop_evolve(start, nat(g, omega), seq, force))

    @pytest.mark.parametrize("n_max", [0, 1, 4, 17, 64, 150, 290])
    @pytest.mark.parametrize("kappa", [0.0, 1e-9, 0.05, 0.7, 2.0, 6.5])
    def test_eigensystem_is_eigh_tridiagonals_bit_for_bit(self, n_max, kappa):
        from scipy.linalg import eigh_tridiagonal

        evals, evecs = oracle._sector_eigensystem.__wrapped__(n_max, kappa)
        ref_evals, ref_evecs = eigh_tridiagonal(np.arange(n_max + 1, dtype=float),
                                                kappa * np.sqrt(np.arange(1, n_max + 1)))
        assert np.array_equal(evals, ref_evals) and np.array_equal(evecs, ref_evecs)

    @pytest.mark.parametrize("n_max,kappa", [(8, math.inf), (8, -math.inf), (8, math.nan), (8, 1e308)],
                             ids=["inf", "-inf", "nan", "overflow"])
    def test_non_finite_coupling_rejected_before_lapack(self, n_max, kappa, monkeypatch):
        # dstevd returns NaN for an infinite off-diagonal without an error;
        # 1e308 sqrt(8) overflows although kappa is finite
        def no_lapack(*args, **kwargs):
            raise AssertionError("dstevd was called")

        monkeypatch.setattr(oracle, "_dstevd", lambda: no_lapack)
        with pytest.raises(ValueError, match=r"coupling kappa = .* gives a non-finite tridiagonal"):
            oracle._sector_eigensystem.__wrapped__(n_max, kappa)

    def test_non_finite_coupling_in_evolve_names_the_coupling(self):
        # g - f = 2e308 overflows to inf; scipy's message used to be the error
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="coupling kappa = inf"):
            evolve(initial_state(0j, 8), nat(1e308, 1.0), ramsey(1.0), force=([0.0, 1.0], [-1e308]))

    def test_costs_logged_at_debug(self, caplog):
        # one record per call, with the costs in attributes and not in the result
        oracle._sector_eigensystem.cache_clear()
        seq, force = carr_purcell2(2.0), ([0.0, 0.5, 1.2, 2.0], [0.2, 0.0, -0.1])
        quiet = evolve(initial_state(0, 40), nat(0.9, 1.0), seq, force=force)
        assert not [r for r in caplog.records if r.name == "spinlev.oracle"]
        oracle._sector_eigensystem.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="spinlev.oracle"):
            loud = evolve(initial_state(0, 40), nat(0.9, 1.0), seq, force=force)
            evolve(initial_state(0, 40), nat(0.9, 1.0), seq)
        first, second = [r for r in caplog.records if r.name == "spinlev.oracle"]
        assert first.levelno == logging.DEBUG
        # pieces from 0, 0.5 (pulse and knot), 1.2 (knot) and 1.5 (pulse); the
        # forced ones meet |kappa| = 0.9 -+ 0.2 and 0.9 -+ 0.1
        assert (first.n_pieces, first.cache_misses, first.forced_decompositions) == (4, 1, 4)
        assert (second.n_pieces, second.cache_misses, second.forced_decompositions) == (3, 0, 0)
        assert first.decompose_s > 0.0 and first.product_s > 0.0
        assert (first.tail, first.drift) == loud.margins()
        assert np.array_equal(loud.coeff, quiet.coeff)

    def test_one_eigensystem_per_coupling_pair(self):
        oracle._sector_eigensystem.cache_clear()
        evolve(initial_state(0, 40), nat(0.9, 1.0), carr_purcell2(2.0))
        assert oracle._sector_eigensystem.cache_info().misses == 1


class TestDstevdLoader:
    KAPPAS = (0.0, 0.7, 6.5)

    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch):
        # each test resolves dstevd anew, without the module scipy.linalg
        # imported; later tests resolve it again
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        oracle._dstevd.cache_clear()
        yield
        oracle._dstevd.cache_clear()

    def eigensystems(self):
        return [oracle._sector_eigensystem.__wrapped__(n_max, kappa)
                for n_max in (0, 64, 290) for kappa in self.KAPPAS]

    def resolve(self, caplog):
        """oracle._dstevd() and the route its one DEBUG record names."""
        with caplog.at_level(logging.DEBUG, logger="spinlev.oracle"):
            dstevd = oracle._dstevd()
            oracle._dstevd()  # cached: no second record
        (record,) = [r for r in caplog.records if r.name == "spinlev.oracle"]
        assert record.levelno == logging.DEBUG and record.dstevd_route in record.getMessage()
        return dstevd, record

    def test_file_loaded_without_the_package(self, caplog):
        dstevd, record = self.resolve(caplog)
        path = oracle._flapack_path()
        assert record.dstevd_route == "file" and path in record.getMessage()
        assert os.path.basename(path).startswith("_flapack.")
        assert "scipy.linalg._flapack" not in sys.modules  # left for the package to import

    @pytest.mark.parametrize("probe", ["missing", "unloadable"])
    def test_public_import_is_the_fallback(self, probe, monkeypatch, caplog, tmp_path):
        direct = self.eigensystems()
        oracle._dstevd.cache_clear()
        fake = tmp_path / "_flapack.so"
        fake.write_bytes(b"not a shared object")
        monkeypatch.setattr(oracle, "_flapack_path", lambda: None if probe == "missing" else str(fake))
        dstevd, record = self.resolve(caplog)
        from scipy.linalg.lapack import dstevd as public

        assert record.dstevd_route == "public" and dstevd is public
        for (evals, evecs), (ref_evals, ref_evecs) in zip(self.eigensystems(), direct):
            assert np.array_equal(evals, ref_evals) and np.array_equal(evecs, ref_evecs)

    def test_imported_module_reused(self, monkeypatch, caplog):
        import scipy.linalg.lapack

        monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", scipy.linalg.lapack._flapack)
        dstevd, record = self.resolve(caplog)
        assert record.dstevd_route == "sys.modules" and dstevd is scipy.linalg.lapack.dstevd


class TestWitnessMoments:
    def test_product_state_cross_moments_vanish(self):
        est = witness_moments(nat(0.0, 1.0), ramsey(1.0))
        m = est.record
        for field in ("cov_syq", "cov_syp", "cov_szq", "cov_szp"):
            assert getattr(m, field) == pytest.approx(0.0, abs=1e-12)

    def test_pure_wen_matches_closed_form(self):
        omega = 1.0
        for lam, t in [(0.5, math.pi), (0.3, 1.1), (1.0, math.pi)]:
            est = witness_moments(nat(lam * omega / 2, omega), ramsey(t))
            m = est.record
            c = witness.optimize_coefficients(m)
            assert witness.witness_value(m, c) == pytest.approx(
                witness.thermal_wen(lam, 0.0, omega, t), abs=1e-8)

    def test_thermal_wen_within_errorbars(self):
        omega, lam, t = 1.0, 0.5, math.pi
        cfg = OracleConfig(seed=20250826, n_trajectories=10000)
        est = witness_moments(nat(lam * omega / 2, omega), ramsey(t), cfg, nbar=1.0)
        closed = witness.thermal_wen(lam, 1.0, omega, t)
        coeff = witness.halfperiod_coefficients(lam, 1.0)
        est2 = witness_moments(nat(lam * omega / 2, omega), ramsey(t), cfg, nbar=1.0,
                               coefficients=coeff)
        assert abs(est2.w_en - closed) < 3 * est2.w_en_se

    def test_too_few_samples_for_the_batches_rejected(self):
        # one sample left the second of two batches empty: w_en_se was NaN
        with pytest.raises(ValueError, match="n_trajectories must be >= 2"):
            witness_moments(nat(0.25, 1.0), ramsey(math.pi), OracleConfig(n_trajectories=1, seed=1), nbar=1.0)
        est = witness_moments(nat(0.25, 1.0), ramsey(math.pi), OracleConfig(n_trajectories=2, seed=1), nbar=1.0)
        assert math.isfinite(est.w_en_se)

    def test_standard_error_below_200_samples_from_more_than_two_batches(self):
        # two batch means (one degree of freedom) gave w_en_se from 3.1e-5 to
        # 0.018 over these seeds, against a true spread of w_en of 0.0089
        se = [witness_moments(nat(0.25, 1.0), ramsey(math.pi), OracleConfig(seed=seed, n_trajectories=199),
                              nbar=1.0).w_en_se for seed in range(1, 61)]
        assert min(se) > 2e-3

    def test_seed_determinism(self):
        cfg = OracleConfig(seed=11, n_trajectories=500)
        a = witness_moments(nat(0.25, 1.0), ramsey(1.0), cfg, nbar=0.5)
        b = witness_moments(nat(0.25, 1.0), ramsey(1.0), cfg, nbar=0.5)
        assert a.record == b.record

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
    def test_nbar_outside_domain_rejected_by_name(self, nbar):
        # NaN raised "b_y must be finite", inf "alpha must be finite" after a
        # RuntimeWarning, and -1 with explicit coefficients "math domain error"
        coeff = witness.halfperiod_coefficients(0.5, 1.0)
        with pytest.raises(ValueError, match=r"^nbar must be finite and >= 0, got "):
            witness_moments(nat(0.25, 1.0), ramsey(math.pi), OracleConfig(n_trajectories=100), nbar=nbar,
                            coefficients=coeff)

    @pytest.mark.parametrize("seq", [hahn_echo(2 * math.pi), carr_purcell2(2 * math.pi), OFF_GRID],
                             ids=["hahn_echo", "carr_purcell2", "custom"])
    def test_fock_route_matches_branch_moments_of_pulsed_sequences(self, seq):
        # at g/omega = 2, omega tau = 2 pi the cutoff (|2g/omega| + 1)^2 raised
        # CutoffError for echo and CP2; the bound from the branch states does not
        omega = 2 * math.pi / seq.total_time
        est = witness_moments(nat(2 * omega, omega), seq)
        ref = oracle._record_from_raw(oracle._branch_raw_moments([0j], 2 * omega, omega, seq)[0])
        for field in dataclasses.fields(ref):
            assert getattr(est.record, field.name) == pytest.approx(getattr(ref, field.name), abs=1e-8), field.name


def dense_moments(state):
    """The dense-operator route moments_from_state replaced: q and p as
    (n_max + 1)^2 matrices, every moment a matrix product on a spin column."""
    c0, c1 = state.coeff
    a = np.diag(np.sqrt(np.arange(1, state.n_max + 1)), 1)
    q = (a + a.T) / math.sqrt(2)
    p = (a - a.T) / (1j * math.sqrt(2))
    sx = 2 * float(np.real(np.vdot(c1, c0)))
    sy = -2 * float(np.imag(np.vdot(c1, c0)))
    sz = float(np.vdot(c0, c0).real - np.vdot(c1, c1).real)
    mq = float(np.real(np.vdot(c0, q @ c0) + np.vdot(c1, q @ c1)))
    mp = float(np.real(np.vdot(c0, p @ c0) + np.vdot(c1, p @ c1)))
    mq2 = float(np.real(np.vdot(c0, q @ q @ c0) + np.vdot(c1, q @ q @ c1)))
    mp2 = float(np.real(np.vdot(c0, p @ p @ c0) + np.vdot(c1, p @ p @ c1)))
    qp = q @ p + p @ q
    mqp = float(np.real(np.vdot(c0, qp @ c0) + np.vdot(c1, qp @ c1)))
    syq = -2 * float(np.imag(np.vdot(c1, q @ c0)))
    syp = -2 * float(np.imag(np.vdot(c1, p @ c0)))
    szq = float(np.real(np.vdot(c0, q @ c0) - np.vdot(c1, q @ c1)))
    szp = float(np.real(np.vdot(c0, p @ c0) - np.vdot(c1, p @ c1)))
    return oracle._record_from_raw((sx, sy, mq, mp, mq2, mp2, mqp, syq, syp, szq, szp), sz)


def _pulsed_state(seq):
    """The vacuum start evolved through seq at g/omega = 2, omega tau = 2 pi."""
    omega = 2 * math.pi / seq.total_time
    n_max = suggested_n_max((oracle._max_branch_amplitude(seq, 2 * omega, omega) + 1) ** 2)
    return evolve(initial_state(0j, n_max), nat(2 * omega, omega), seq)


def _random_state(n_max):
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, n_max + 1)) + 1j * rng.normal(size=(2, n_max + 1))
    return JointState(c / np.linalg.norm(c))


class TestLadderMoments:
    @pytest.mark.parametrize("make", [
        lambda: evolve(initial_state(0j, 64), nat(0.25, 1.0), ramsey(math.pi)),
        lambda: _pulsed_state(hahn_echo(2 * math.pi)),
        lambda: _pulsed_state(carr_purcell2(2 * math.pi)),
        lambda: _pulsed_state(OFF_GRID),
        lambda: _random_state(40),
    ], ids=["ramsey_64", "hahn_echo", "carr_purcell2", "custom", "random"])
    def test_matches_dense_operators(self, make):
        state = make()
        got, ref = oracle.moments_from_state(state), dense_moments(state)
        for field in dataclasses.fields(ref):
            assert abs(getattr(got, field.name) - getattr(ref, field.name)) <= 1e-12, field.name


def _flat(stats):
    """The six estimates, then the six standard errors, of a BathStatistics."""
    return dataclasses.astuple(stats.estimate) + dataclasses.astuple(stats.standard_error)


class TestThermalTrajectories:
    def test_zero_bath(self):
        cfg = OracleConfig(seed=1, n_trajectories=100)
        stats = thermal_trajectories(nat(0.25, 1.0), ramsey(1.0), cfg, 0.0)
        # only rounding residue of the deterministic-phase subtraction remains
        for _, value, se in stats.as_pairs():
            assert abs(value) < 1e-30 and abs(se) < 1e-30

    def test_correlator_integral(self):
        # free oscillator: d<q^2> + d<p^2> = 4 omega t (nbar/Q) tests the
        # white-noise normalization directly
        omega, t, noq = 1.0, 2.0, 0.5
        cfg = OracleConfig(seed=20250826, n_trajectories=3000)
        stats = thermal_trajectories(nat(0.0, omega), ramsey(t), cfg, noq)
        pairs = dict((name, (v, se)) for name, v, se in stats.as_pairs())
        total = pairs["dq2"][0] + pairs["dp2"][0]
        se = math.hypot(pairs["dq2"][1], pairs["dp2"][1])
        assert abs(total - 4 * omega * t * noq) < 3 * se

    def test_closed_forms_within_three_sigma(self):
        lam, noq, omega = 0.5, 1.0, 1.0
        t = math.pi
        cfg = OracleConfig(seed=20250826, n_trajectories=1500)
        stats = thermal_trajectories(nat(lam * omega / 2, omega), ramsey(t), cfg, noq)
        d = witness.bath_deltas(lam, noq, omega, t)
        closed = (d.dvar_sx, d.dq2, d.dp2, d.dqp, d.dsyq, d.dsyp)
        for (name, value, se), expect in zip(stats.as_pairs(), closed):
            assert abs(value - expect) < 3 * se, name

    def test_determinism_across_runs(self):
        cfg = OracleConfig(seed=5, n_trajectories=200)
        a = thermal_trajectories(nat(0.25, 1.0), ramsey(1.0), cfg, 0.1)
        b = thermal_trajectories(nat(0.25, 1.0), ramsey(1.0), cfg, 0.1)
        assert a.as_pairs() == b.as_pairs()

    def test_resolution_error(self):
        cfg = OracleConfig(seed=1, n_trajectories=100)
        with pytest.raises(ResolutionError):
            thermal_trajectories(nat(0.25, 1.0), ramsey(1.0), cfg, 1e6)

    # Recorded from the per-trajectory normal(0, sd_f) draws stacked chunk by
    # chunk. A change to the Philox streams, their order or the chunking moves
    # these at O(1); the tolerance leaves room only for BLAS summation order.
    @pytest.mark.parametrize("seq,n,noq,expected", [
        (ramsey(math.pi), 200, 0.5, (
            1.0924055466435556, 3.0204803172910375, 3.251119964593572, 0.2836425138322257,
            -2.5866320811779286, 2.0973486362250493, 0.1139464914094275, 0.3254542989011228,
            0.297648558878171, 0.3765644630521697, 0.3432154697533869, 0.26135038767144)),
        (hahn_echo(2.0), 700, 1e-3, (  # three chunks, the last one short
            0.00020974374205516593, 0.004727184485549375, 0.0035767630489141377,
            0.0032903537100748867, 0.0019409027440489494, 0.00038613155272367066,
            1.2274915346594338e-05, 0.0002684931871800916, 0.0001819529509974048,
            0.0003347697227661008, 0.0001135783863045791, 6.927348128341241e-05)),
    ])
    def test_fixed_seed_statistics_pinned(self, seq, n, noq, expected):
        cfg = OracleConfig(seed=20250826, n_trajectories=n)
        stats = thermal_trajectories(nat(0.25, 1.0), seq, cfg, noq)
        assert _flat(stats) == pytest.approx(expected, rel=1e-12, abs=0)


def _per_case_reference(natural, seq, cfg, nbar_over_q):
    """One sequence at a time, as thermal_trajectories ran before batching:
    the force block is scaled by sd_f and multiplied by the unscaled weights."""
    g, omega = natural.g, natural.omega
    n_steps = 4096
    dt = seq.total_time / n_steps
    sd_f = math.sqrt(2 * omega * nbar_over_q / dt)
    weights = oracle._force_weights(seq, g, omega, n_steps)
    n = cfg.n_trajectories
    samples = np.empty((n, 3))
    chunk = 256
    forces = np.empty((min(chunk, n), n_steps))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        f = forces[:stop - start]
        for i, row in enumerate(f, start):
            rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=(i << 64)))
            rng.standard_normal(out=row)
        f *= sd_f
        samples[start:stop] = f @ weights
    phi, qq, pp = samples.T
    per_traj = np.column_stack([phi * phi / 4, qq * qq, pp * pp, 2 * qq * pp, phi * qq, phi * pp])
    mean = per_traj.mean(axis=0)
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    return oracle.BathStatistics(witness.BathDeltas(*mean), witness.BathDeltas(*se))


# Ramsey, echo, CP2 and the off-grid custom sequence, each at its own bath strength
BATCH_CASES = [(ramsey(2.0), 1e-3), (hahn_echo(2.0), 0.2), (carr_purcell2(2.0), 1.0),
               (OFF_GRID, 0.05)]
BATCH_TOL = 1e-12  # the sd_f scaling moves from the force block to the weights: rounding only


class TestThermalTrajectoriesBatch:
    @pytest.mark.parametrize("n", [200, 1500])
    def test_matches_per_case_reference(self, n):
        natural, cfg = nat(0.25, 1.0), OracleConfig(seed=20250826, n_trajectories=n)
        got = oracle.thermal_trajectories_batch(natural, BATCH_CASES, cfg)
        assert len(got) == len(BATCH_CASES)
        for stats, (seq, noq) in zip(got, BATCH_CASES):
            ref = _per_case_reference(natural, seq, cfg, noq)
            assert _flat(stats) == pytest.approx(_flat(ref), rel=BATCH_TOL, abs=0.0), seq

    def test_case_does_not_depend_on_its_batch(self):
        natural, cfg = nat(0.25, 1.0), OracleConfig(seed=7, n_trajectories=300)
        full = oracle.thermal_trajectories_batch(natural, BATCH_CASES, cfg)
        backwards = oracle.thermal_trajectories_batch(natural, BATCH_CASES[::-1], cfg)[::-1]
        for (seq, noq), a, b in zip(BATCH_CASES, full, backwards):
            alone = thermal_trajectories(natural, seq, cfg, noq)
            for other in (a, b):
                assert _flat(other) == pytest.approx(_flat(alone), rel=BATCH_TOL, abs=0.0)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def philox(*args, **kwargs):
            raise AssertionError("a force path was drawn")

        monkeypatch.setattr(np.random, "Philox", philox)

    def test_coarse_case_raises_before_any_draw(self, no_draws):
        cfg = OracleConfig(seed=1, n_trajectories=100)
        with pytest.raises(ResolutionError):
            oracle.thermal_trajectories_batch(
                nat(0.25, 1.0), [(ramsey(1.0), 0.1), (ramsey(1.0), 1e6)], cfg)

    @pytest.mark.parametrize("noq", [math.nan, math.inf, -0.1])
    def test_bad_bath_strength_raises_before_any_draw(self, no_draws, noq):
        # a NaN strength once passed the resolution test and returned NaN statistics
        cfg = OracleConfig(seed=1, n_trajectories=100)
        with pytest.raises(ValueError, match="nbar_over_q"):
            oracle.thermal_trajectories_batch(
                nat(0.25, 1.0), [(ramsey(1.0), 0.1), (ramsey(1.0), noq)], cfg)
        with pytest.raises(ValueError, match="nbar_over_q"):
            oracle.bath_covariance(nat(0.25, 1.0), ramsey(1.0), noq)

    def test_empty_cases_raise(self):
        with pytest.raises(ValueError, match="cases"):
            oracle.thermal_trajectories_batch(nat(0.25, 1.0), [], OracleConfig(n_trajectories=100))

    def test_too_few_trajectories_raise(self):
        with pytest.raises(ValueError, match="n_trajectories"):
            oracle.thermal_trajectories_batch(nat(0.25, 1.0), [(ramsey(1.0), 0.1)],
                                              OracleConfig(n_trajectories=99))


def draw_on_threads(monkeypatch, k):
    """Let thermal_trajectories_batch draw on k threads, where the blocks and
    the BLAS scope allow."""
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: k)
    monkeypatch.setattr(oracle, "_DRAW_THREADS", k)


class TestStreamReseek:
    """thermal_trajectories_batch builds one Philox per drawing thread and
    re-seeks it to each trajectory's stream instead of building a generator
    per trajectory."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The force rows the call draws, keyed by stream index: counter word 1
        of the drawing generator's Philox, read just before the row is drawn."""
        drawn = []

        class Recording(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                stream = self.bit_generator.state["state"]["counter"][1]
                result = super().standard_normal(size, dtype, out)
                if out is not None:
                    drawn.append((int(stream), out.copy()))
                return result

        monkeypatch.setattr(np.random, "Generator", Recording)
        return drawn

    @pytest.mark.parametrize("n", [100, 257, 700])
    @pytest.mark.parametrize("seed", [0, 20250826, 2**64 - 1, 2**127])
    def test_rows_are_fresh_streams(self, rows, seed, n):
        oracle.thermal_trajectories_batch(nat(0.25, 1.0), [(ramsey(1.0), 0.1)],
                                          OracleConfig(seed=seed, n_trajectories=n))
        assert sorted(i for i, _ in rows) == list(range(n))  # every stream, once
        by_stream = dict(rows)
        for i in {0, 255, 256, n - 1} & set(range(n)):
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=(i << 64)))
            assert by_stream[i].tobytes() == fresh.standard_normal(4096).tobytes(), i

    def test_one_philox_per_drawing_thread(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        draw_on_threads(monkeypatch, 3)
        threads = 3 if oracle._openblas_threads_local() is not None else 1
        for n in (100, 700):
            built.clear()
            oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES, OracleConfig(seed=3, n_trajectories=n))
            assert built == [{"key": 3}] * threads, n

    def test_draw_and_product_times_logged_at_debug(self, caplog):
        natural, cfg = nat(0.25, 1.0), OracleConfig(seed=3, n_trajectories=300)
        quiet = oracle.thermal_trajectories_batch(natural, BATCH_CASES, cfg)
        assert not [r for r in caplog.records if r.name == "spinlev.oracle"]
        with caplog.at_level(logging.DEBUG, logger="spinlev.oracle"):
            loud = oracle.thermal_trajectories_batch(natural, BATCH_CASES, cfg)
        (record,) = [r for r in caplog.records if r.name == "spinlev.oracle"]
        assert record.levelno == logging.DEBUG
        assert (record.n_trajectories, record.n_cases) == (300, len(BATCH_CASES))
        assert record.draw_s > 0.0 and record.product_s > 0.0
        scoped = oracle._openblas_threads_local() is not None
        assert record.blas_scoped is scoped
        assert record.draw_threads == (min(oracle._usable_cpus(), oracle._DRAW_THREADS) if scoped else 1)
        assert len(record.blocks_per_thread) == record.draw_threads
        assert sum(record.blocks_per_thread) == 10  # 300 rows in blocks of 32
        assert loud == quiet


class TestDrawingThreads:
    """The blocks of force rows are dealt out to the drawing threads, with
    OpenBLAS held to one thread for the call; the statistics do not depend on
    the thread count."""

    @pytest.fixture(scope="class")
    def serial(self):
        """Statistics of one drawing thread, per trajectory count."""
        with pytest.MonkeyPatch.context() as mp:
            draw_on_threads(mp, 1)
            return {n: oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES,
                                                         OracleConfig(seed=11, n_trajectories=n))
                    for n in (100, 257, 700)}

    @staticmethod
    def _logged_call(caplog, n):
        with caplog.at_level(logging.DEBUG, logger="spinlev.oracle"):
            stats = oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES,
                                                      OracleConfig(seed=11, n_trajectories=n))
        (record,) = [r for r in caplog.records if r.name == "spinlev.oracle"]
        return stats, record

    @pytest.mark.parametrize("n", [100, 257, 700])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_statistics_do_not_depend_on_thread_count(self, serial, monkeypatch, caplog, threads, n):
        draw_on_threads(monkeypatch, threads)
        stats, record = self._logged_call(caplog, n)
        assert stats == serial[n]
        assert record.draw_threads == (threads if record.blas_scoped else 1)

    def test_at_most_one_thread_per_block(self, monkeypatch, caplog):
        draw_on_threads(monkeypatch, 8)
        _, record = self._logged_call(caplog, 100)  # four blocks of at most 32 rows
        assert record.draw_threads == (4 if record.blas_scoped else 1)

    def test_draw_threads_capped_at_the_timed_count(self, monkeypatch, caplog):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 64)
        _, record = self._logged_call(caplog, 700)
        assert record.draw_threads == (2 if record.blas_scoped else 1)

    def test_unresolvable_blas_symbol_draws_on_one_thread(self, serial, monkeypatch, caplog):
        import ctypes

        class NoSymbols:
            def __init__(self, path):
                pass

        oracle._openblas_threads_local.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        draw_on_threads(monkeypatch, 3)
        try:
            stats, record = self._logged_call(caplog, 257)
        finally:
            oracle._openblas_threads_local.cache_clear()
        assert (record.draw_threads, record.blas_scoped) == (1, False)
        assert stats == serial[257]

    def test_more_threads_than_cpus_under_a_short_switch_interval(self, serial, monkeypatch):
        # five threads, switching every microsecond: a block drawn from the
        # wrong streams or written to the wrong rows of the samples would
        # move the statistics
        draw_on_threads(monkeypatch, 5)
        got = []
        call = threading.Thread(target=lambda: got.append(oracle.thermal_trajectories_batch(
            nat(0.25, 1.0), BATCH_CASES, OracleConfig(seed=11, n_trajectories=700))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            call.start()
            call.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not call.is_alive()
        assert got == [serial[700]]

    @pytest.fixture
    def set_local(self):
        fn = oracle._openblas_threads_local()
        if fn is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        return fn

    def test_lagging_thread_draws_fewer_blocks(self, serial, set_local, monkeypatch, caplog):
        # the worker thread's filler sleeps before each block, so the calling
        # thread takes every block the worker has not: the blocks are dealt
        # on demand, not by a fixed stride, and the statistics keep their bytes
        caller, streams_of = threading.get_ident(), {}
        stream_filler = oracle._stream_filler

        def lagging_filler(seed):
            fill = stream_filler(seed)

            def lagging_fill(rows, start):
                if threading.get_ident() != caller:
                    time.sleep(0.05)
                streams_of.setdefault(threading.get_ident(), []).append(start)
                fill(rows, start)
            return lagging_fill

        monkeypatch.setattr(oracle, "_stream_filler", lagging_filler)
        draw_on_threads(monkeypatch, 2)
        stats, record = self._logged_call(caplog, 700)
        assert stats == serial[700]
        mine = streams_of.pop(caller)
        (lagging,) = streams_of.values()
        blocks = list(range(0, 700, 32))
        assert sorted(mine) == sorted(set(blocks) - set(lagging))
        assert sorted(mine + lagging) == blocks
        assert len(lagging) < len(blocks) // 2  # a stride of two would give it 11 of 22
        assert record.blocks_per_thread == [len(mine), len(lagging)]

    @pytest.mark.parametrize("failing_stream", [None, 0, 32])  # none; the first block; the second
    def test_blas_thread_count_restored(self, set_local, monkeypatch, failing_stream):
        class Failing(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                if self.bit_generator.state["state"]["counter"][1] == failing_stream:
                    raise FloatingPointError("draw failed")
                return super().standard_normal(size, dtype, out)

        monkeypatch.setattr(np.random, "Generator", Failing)
        draw_on_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        outer = set_local(2)
        try:
            if failing_stream is None:
                oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES, OracleConfig(n_trajectories=100))
            else:
                with pytest.raises(FloatingPointError, match="draw failed"):
                    oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES,
                                                      OracleConfig(n_trajectories=100))
        finally:
            inside = set_local(outer)
        assert inside == 2
        assert threading.active_count() == threads_before  # every drawing thread joined

    def test_blas_thread_count_is_held_for_the_whole_process(self, set_local, monkeypatch):
        # numpy's bundled OpenBLAS keeps one count for every thread: a thread
        # started during the call, which is not a drawing thread, sees 1 too
        seen = []

        def read_count():
            count = set_local(1)
            set_local(count)
            seen.append(count)

        class Probing(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                if not seen:
                    other = threading.Thread(target=read_count)
                    other.start()
                    other.join()
                return super().standard_normal(size, dtype, out)

        monkeypatch.setattr(np.random, "Generator", Probing)
        draw_on_threads(monkeypatch, 1)
        outer = set_local(2)
        try:
            oracle.thermal_trajectories_batch(nat(0.25, 1.0), BATCH_CASES, OracleConfig(n_trajectories=100))
        finally:
            after = set_local(outer)
        assert (seen, after) == ([1], 2)

    def test_concurrent_calls_restore_blas_thread_count(self, set_local, monkeypatch):
        # each call restores the count it found, so overlapping calls must
        # not find the count another call set
        draw_on_threads(monkeypatch, 2)
        done = []
        calls = [threading.Thread(target=lambda s=s: done.append(oracle.thermal_trajectories_batch(
            nat(0.25, 1.0), BATCH_CASES, OracleConfig(seed=s, n_trajectories=300)))) for s in range(4)]
        outer = set_local(2)
        try:
            for call in calls:
                call.start()
            for call in calls:
                call.join(timeout=120)
        finally:
            after = set_local(outer)
        assert not any(call.is_alive() for call in calls)
        assert (len(done), after) == (4, 2)


class TestBathCovariance:
    @pytest.mark.parametrize("noq", [1e-3, 1.0])
    @pytest.mark.parametrize("wt", [math.pi / 2, math.pi, 2 * math.pi])
    def test_matches_bath_deltas_on_verify_configurations(self, noq, wt):
        # the configurations of check_bath_monte_carlo; the gap is the O(dt^2)
        # of the 4096-step grid, at most 1.96e-7 of the largest statistic
        lam, omega = 0.5, 1.0
        exact = oracle.bath_covariance(nat(lam * omega / 2, omega), ramsey(wt / omega), noq)
        d = witness.bath_deltas(lam, noq, omega, wt / omega)
        closed = (d.dvar_sx, d.dq2, d.dp2, d.dqp, d.dsyq, d.dsyp)
        values = [v for _, v, _ in exact.as_pairs()]
        scale = max(abs(v) for v in closed)
        assert max(abs(a - b) for a, b in zip(values, closed)) <= 1e-6 * scale
        assert all(se == 0.0 for _, _, se in exact.as_pairs())

    def test_monte_carlo_scatters_around_it(self):
        natural, cfg = nat(0.25, 1.0), OracleConfig(seed=20250826, n_trajectories=1500)
        mcs = oracle.thermal_trajectories_batch(natural, BATCH_CASES, cfg)
        for (seq, noq), mc in zip(BATCH_CASES, mcs):
            exact = oracle.bath_covariance(natural, seq, noq)
            for (name, v, se), (_, e, _) in zip(mc.as_pairs(), exact.as_pairs()):
                assert abs(v - e) <= 3 * se, (seq, name)

    def test_coarse_grid_raises(self):
        with pytest.raises(ResolutionError):
            oracle.bath_covariance(nat(0.25, 1.0), ramsey(1.0), 1e6)


class TestGaussianNoiseFactor:
    def test_matches_closed_form_at_moderate_kappa(self):
        for n, kappa in [(100, 0.5), (10000, 1.0)]:
            zeta = kappa / n
            theta, factor = None, None
            from spinlev.sensing import squeezed_rotation

            theta, factor = squeezed_rotation(n, zeta)
            orc = gaussian_noise_factor(n, zeta, theta)
            assert abs(orc - factor) / factor < 0.05


def _stepping_reference(natural, seq, cfg, nbar_over_q):
    """Three-branch stepping loop through dynamics.segment_step's per-step map,
    the estimator thermal_trajectories replaced; same force paths."""
    g, omega = natural.g, natural.omega
    tau = seq.total_time
    n_steps = 4096
    dt = tau / n_steps
    sd_f = math.sqrt(2 * omega * nbar_over_q / dt)
    edges = np.linspace(0.0, tau, n_steps + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    signs = 1 - 2 * (pulses.segment_index(seq, mids) % 2)
    phase_step = np.exp(-1j * omega * dt)
    n = cfg.n_trajectories
    f = np.stack([np.random.Generator(np.random.Philox(key=cfg.seed, counter=(i << 64)))
                  .normal(0.0, sd_f, size=n_steps) for i in range(n)])
    theta = {"p": np.zeros(n), "m": np.zeros(n), "0": np.zeros(n)}
    gam = {"p": np.zeros(n, dtype=complex), "m": np.zeros(n, dtype=complex),
           "0": np.zeros(n, dtype=complex)}
    for k in range(n_steps):
        s = signs[k]
        for which, cvec in (("p", s * g + f[:, k]), ("m", -s * g + f[:, k]),
                            ("0", np.full(n, s * g))):
            beta = cvec / omega
            phase1 = (beta * np.conj(gam[which])).imag
            g2 = (gam[which] + beta) * phase_step
            phase2 = (-beta * np.conj(g2)).imag
            theta[which] = theta[which] + cvec * cvec * dt / omega + phase1 + phase2
            gam[which] = g2 - beta
    phi = (theta["p"] - theta["m"]) + (np.conj(gam["m"]) * gam["p"]).imag
    t0p, g0p, t0m, g0m = 0.0, 0j, 0.0, 0j
    for a, b, k, _ in zip(*(x.tolist() for x in pulses.pieces(seq))):
        sseg = (-1) ** k
        t0p, g0p = dynamics.segment_step(t0p, g0p, sseg * g, omega, b - a)
        t0m, g0m = dynamics.segment_step(t0m, g0m, -sseg * g, omega, b - a)
    phi = phi - ((t0p - t0m) + (np.conj(g0m) * g0p).imag)
    dgam = gam["p"] - gam["0"]
    qq, pp = math.sqrt(2) * dgam.real, math.sqrt(2) * dgam.imag
    per_traj = np.column_stack([phi * phi / 4, qq * qq, pp * pp, 2 * qq * pp, phi * qq, phi * pp])
    mean = per_traj.mean(axis=0)
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    return oracle.BathStatistics(witness.BathDeltas(*mean), witness.BathDeltas(*se))


class TestLinearResponseEstimator:
    SEQS = [ramsey(2.0), hahn_echo(2.0), carr_purcell2(2.0), OFF_GRID]

    @pytest.mark.parametrize("noq", [1e-3, 0.2])
    @pytest.mark.parametrize("seq", SEQS, ids=["ramsey", "hahn_echo", "carr_purcell2", "custom"])
    def test_matches_stepping_loop(self, seq, noq):
        natural, cfg = nat(0.25, 1.0), OracleConfig(seed=20250826, n_trajectories=200)
        got = _flat(thermal_trajectories(natural, seq, cfg, noq))
        ref = _flat(_stepping_reference(natural, seq, cfg, noq))
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_force_free_phase_vanishes_off_grid(self):
        # why the estimator has no offset term: at f = 0 the branches are mirror
        # images, also when a pulse falls inside a step
        st = dynamics.evolve_state(OFF_GRID, 0.25, 1.0)
        assert st.branch1.alpha == -st.branch0.alpha and st.relative_phase == 0.0
        ref = _stepping_reference(nat(0.25, 1.0), OFF_GRID, OracleConfig(n_trajectories=100), 0.0)
        assert all(abs(v) < 1e-30 for v in _flat(ref))


class TestVectorisedRawMoments:
    @pytest.mark.parametrize("seq", [ramsey(math.pi), ramsey(0.7), hahn_echo(2.0), carr_purcell2(2.0), OFF_GRID],
                             ids=["ramsey_pi", "ramsey_0.7", "hahn_echo", "carr_purcell2", "custom"])
    @pytest.mark.parametrize("g, omega", [(0.25, 1.0), (1.3, 2.0)])
    def test_matches_per_alpha_evolve_state(self, seq, g, omega):
        rng = np.random.default_rng(11)
        alphas = rng.uniform(0.0, 5.0, 500) * np.exp(2j * math.pi * rng.uniform(size=500))
        r2 = math.sqrt(2)
        raw = oracle._branch_raw_moments(alphas, g, omega, seq)
        assert raw.shape == (500, 11)
        for row, al in zip(raw, alphas):
            st = dynamics.evolve_state(seq, g, omega, complex(al))
            g0, g1 = st.branch0.alpha, st.branch1.alpha
            overlap = cmath.exp(-abs(g0) ** 2 / 2 - abs(g1) ** 2 / 2 + g1.conjugate() * g0)  # <branch1|branch0>
            z = cmath.exp(1j * st.relative_phase) * overlap
            q0, p0, q1, p1 = r2 * g0.real, r2 * g0.imag, r2 * g1.real, r2 * g1.imag
            qc, pc = (g0 + g1.conjugate()) / r2, (g0 - g1.conjugate()) / (1j * r2)
            expect = [z.real, -z.imag, (q0 + q1) / 2, (p0 + p1) / 2,
                      (q0 * q0 + q1 * q1 + 1) / 2, (p0 * p0 + p1 * p1 + 1) / 2,
                      q0 * p0 + q1 * p1, -(z * qc).imag, -(z * pc).imag,
                      (q0 - q1) / 2, (p0 - p1) / 2]
            assert np.max(np.abs(row - expect)) <= 1e-12

    def test_overflow_in_the_walk_raises(self):
        # the sampled amplitudes are stepped as one array; an overflow there
        # raised numpy's RuntimeWarning before the final-state check
        with pytest.raises(ParameterError, match="^branch state is not finite at g = 10.0, "):
            oracle._branch_raw_moments(np.array([0.5, 1e308 + 0j]), 10.0, 1.0, hahn_echo(1.0))


def test_verify_and_evolve_leave_scipy_linalg_unloaded(child_env):
    # the oracle loads scipy's LAPACK extension on its own, not through the
    # scipy.linalg package import; a later import of the package still works
    # and runs the same dstevd
    code = ("import sys, numpy as np\n"
            "from spinlev import oracle, pulses, verify\n"
            "from spinlev.units import NaturalParams\n"
            "verify.run_checks()\n"
            "natural = NaturalParams(g=0.9, omega=1.0, lam=1.8, nbar=0.0, gamma=1e-6, x0=1.0, larmor=0.0)\n"
            "oracle.evolve(oracle.initial_state(0.3j, 60), natural, pulses.carr_purcell2(2.0))\n"
            "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)\n"
            "import scipy.linalg\n"
            "diag, off = np.arange(291.0), 0.7 * np.sqrt(np.arange(1.0, 291.0))\n"
            "got, ref = oracle._dstevd()(diag, off), scipy.linalg.lapack.dstevd(diag, off)\n"
            "print(all(np.array_equal(a, b) for a, b in zip(got, ref)), hasattr(scipy.linalg, '_flapack'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True"]


def test_import_leaves_scipy_unloaded(tmp_path, child_env):
    # scipy's LAPACK is loaded by the oracle's eigensolver on first use, so the
    # closed-form subcommands do not pay for it, at import or when they run
    code = ("import os, sys, spinlev, spinlev.cli\n"
            "for command in ('sensitivity', 'witness', 'table', 'trajectory'):\n"
            "    assert spinlev.cli.main([command, '--out', os.path.join(sys.argv[1], command)]) == 0\n"
            "spinlev.pulses.force_response(spinlev.pulses.hahn_echo(1.0), 0.5, 1.0,\n"
            "                              ([0.0, 0.2, 0.7, 1.0], [0.0, 0.1, 0.0]))\n"
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_and_bath_draws_leave_concurrent_futures_unloaded(child_env):
    # the drawing threads are plain threading.Threads; concurrent.futures would
    # add about 4 ms to every cold start
    code = ("import sys, spinlev, spinlev.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "from spinlev import oracle, pulses\n"
            "from spinlev.units import NaturalParams\n"
            "natural = NaturalParams(g=0.25, omega=1.0, lam=0.5, nbar=0.0, gamma=1e-6, x0=1.0, larmor=0.0)\n"
            "oracle.thermal_trajectories(natural, pulses.ramsey(1.0), oracle.OracleConfig(n_trajectories=100), 0.1)\n"
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]

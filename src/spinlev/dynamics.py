r"""Exact spin-conditioned coherent-state evolution under pulse sequences.

Because the interaction-picture Hamiltonian commutators [H(t), [H(t'), H(t'')]]
vanish, the two-term Magnus expansion is exact, and a coherent state stays
coherent in each spin branch. Each branch is tracked as a pair (theta, gamma):
a global phase and a coherent amplitude. For a segment of duration dt with
constant drive coefficient c (Hamiltonian omega a^dag a + c (a + a^dag)),

    e^{-iH dt} = e^{+i c^2 dt/omega} D(-c/omega) e^{-i omega n dt} D(c/omega),

which maps |gamma> -> e^{i phase} |(gamma + c/omega) e^{-i omega dt} - c/omega>.
Phases are retained so interference-sensitive witness moments are correct.

The drive coefficient of branch b in segment k is c = b * s_k * g + f, where
s_k is the pulse sign profile and f an optional piecewise-constant force
(bath sign convention H ~ (g sigma_z + f)(a + a^dag); an external sensing
force enters with f = -f_ext).
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import pulses
from .pulses import PulseSequence


@dataclass(frozen=True)
class Branch:
    amplitude: complex  # includes the 1/sqrt2 weight and the branch global phase
    alpha: complex


@dataclass(frozen=True)
class EntangledState:
    """Two spin-labeled coherent branches; branch0 is the sigma_z = +1 branch."""

    branch0: Branch
    branch1: Branch
    relative_phase: float  # theta0 - theta1 (global-phase part only)

    def branch(self, spin: int) -> Branch:
        return self.branch0 if spin == 0 else self.branch1

    def observable_phase(self) -> float:
        """Full coherence phase between branches, including the overlap phase."""
        g0, g1 = self.branch0.alpha, self.branch1.alpha
        return self.relative_phase + (np.conj(g1) * g0).imag

    def overlap(self) -> complex:
        """<branch1 | branch0> coherent-state overlap."""
        g0, g1 = self.branch0.alpha, self.branch1.alpha
        return cmath.exp(-abs(g0) ** 2 / 2 - abs(g1) ** 2 / 2 + np.conj(g1) * g0)


def segment_step(theta: float, gamma: complex, c: float, omega: float, dt: float):
    """Evolve one branch through one constant-coefficient segment (exact)."""
    beta = c / omega
    phase1 = (beta * np.conj(gamma)).imag
    g2 = (gamma + beta) * cmath.exp(-1j * omega * dt)
    phase2 = (-beta * np.conj(g2)).imag
    return theta + c * c * dt / omega + phase1 + phase2, g2 - beta


def branch_evolution(
    seq: PulseSequence,
    g: float,
    omega: float,
    spin_sign: int,
    alpha: complex = 0j,
    force=None,
):
    """Final (theta, gamma) for one spin branch; force is an optional
    (times, values) piecewise-constant series on a grid covering [0, tau]."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    theta, gamma = 0.0, complex(alpha)
    for a, b, s in _force_segments(seq, force):
        # Hamiltonian term -f (a + a^dag): the x coefficient is sign*g - f
        c = spin_sign * s[0] * g - s[1]
        theta, gamma = segment_step(theta, gamma, c, omega, b - a)
    return theta, gamma


def _force_segments(seq: PulseSequence, force):
    """Merge pulse segments with force-grid segments into (a, b, (sign, f)) pieces."""
    segs = pulses.segments(seq)
    if force is None:
        return [(a, b, (s, 0.0)) for a, b, s in segs]
    times, values = force
    times = list(times)
    if times[0] != 0.0 or times[-1] < seq.total_time - 1e-15 * seq.total_time:
        raise ValueError("force grid must start at 0 and cover [0, tau]")
    edges = sorted(set(t for t in times if t < seq.total_time) | {a for a, _, _ in segs} | {seq.total_time})
    out = []
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        s = pulses.sign_profile(seq, a)
        idx = int(np.searchsorted(times, mid, side="right")) - 1
        out.append((a, b, (s, float(values[min(idx, len(values) - 1)]))))
    return out


def evolve_state(
    seq: PulseSequence,
    g: float,
    omega: float,
    alpha: complex = 0j,
    force=None,
) -> EntangledState:
    """Evolve (|0> + |1>)/sqrt2 x |alpha> through the sequence."""
    t0, g0 = branch_evolution(seq, g, omega, +1, alpha, force)
    t1, g1 = branch_evolution(seq, g, omega, -1, alpha, force)
    w = 1.0 / math.sqrt(2.0)
    return EntangledState(
        Branch(w * cmath.exp(1j * t0), g0),
        Branch(w * cmath.exp(1j * t1), g1),
        t0 - t1,
    )


def pulseless_state(alpha: complex, g: float, omega: float, tau: float) -> EntangledState:
    """Free evolution for tau: branches (alpha +/- g/omega) e^{-i omega tau} -/+ g/omega."""
    return evolve_state(pulses.ramsey(tau), g, omega, alpha)


def pulsed_state(alpha: complex, g: float, omega: float, tau: float) -> EntangledState:
    """Single pi pulse at tau/2:
    branches (alpha +/- g/omega) e^{-i omega tau} +/- g/omega -/+ (2g/omega) e^{-i omega tau/2}."""
    return evolve_state(pulses.hahn_echo(tau), g, omega, alpha)


def trajectory(
    seq: PulseSequence,
    g: float,
    omega: float,
    spin_branch: int,
    n_samples: int,
    alpha: complex = 0j,
):
    """Sample (t, q, p) of one branch over [0, tau] with exact per-segment evolution.

    The branch state is stored at each segment start; a sample at t takes one
    step from the start of the last segment that begins before t.
    Quadratures are q = sqrt2 Re(gamma), p = sqrt2 Im(gamma).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    spin_sign = +1 if spin_branch == 0 else -1
    segs = pulses.segments(seq)
    starts = [(0.0, complex(alpha))]
    for a, b, s in segs[:-1]:
        starts.append(segment_step(*starts[-1], spin_sign * s * g, omega, b - a))
    seg_starts = [a for a, _, _ in segs]
    out = []
    for t in np.linspace(0.0, seq.total_time, n_samples):
        k = bisect.bisect_left(seg_starts, t)  # segments that begin before t
        gamma = starts[0][1]
        if k:
            a, b, s = segs[k - 1]
            _, gamma = segment_step(*starts[k - 1], spin_sign * s * g, omega, min(b, t) - a)
        out.append((float(t), math.sqrt(2) * gamma.real, math.sqrt(2) * gamma.imag))
    return out


@dataclass(frozen=True)
class MagnusPhases:
    displacement_per_sz: complex
    displacement_force: complex
    force_phase_per_sz: float
    squeezing_zeta: float


def magnus_phases(seq: PulseSequence, g: float, omega: float, force=None) -> MagnusPhases:
    """Split the exact evolution into displacement and phase functionals.

    * displacement_per_sz: final spin-conditioned displacement (per sigma_z unit),
      equal to the residual-displacement beta;
    * displacement_force: final displacement from the external force alone
      (sensing sign convention, Hamiltonian term -f (a + a^dag));
    * force_phase_per_sz: int K(s) f(s) ds, the accumulated spin phase per
      (sigma_z/2) in the same normalization as the response kernel;
    * squeezing_zeta: the J_z^2 coefficient.

    force may be a piecewise-constant time series (edges, values) with
    len(edges) == len(values) + 1 (handled exactly), or a callable spectrum
    f(nu) with the convention f(nu) = (2 pi)^{-1/2} int f(t) e^{i nu t} dt,
    in which case force_phase = Re int chi(nu) f(nu) dnu by quadrature.
    """
    beta, _ = pulses.residual_displacement(seq, g, omega)
    disp_f = 0j
    phase_f = 0.0
    tau = seq.total_time
    if callable(force):
        from scipy.integrate import quad

        def integrand(nu: float) -> float:
            return (pulses.response_kernel(seq, g, omega, nu) * force(nu)).real

        cut = 400.0 * max(omega, 2 * math.pi / tau)
        pts = [-omega, 0.0, omega]
        val, _err = quad(integrand, -cut, cut, points=pts, limit=800)
        phase_f = val
        disp_f = 1j * cmath.exp(-1j * omega * tau) * math.sqrt(2 * math.pi) * complex(force(omega))
    elif force is not None:
        times, values = force
        times = list(times)
        if len(times) == len(values):
            times = times + [tau]
        if len(times) != len(values) + 1:
            raise ValueError("force series must be (edges, values) with one more edge than value")
        _check_force_resolution(seq, omega, times)
        pieces = pulses._kernel_pieces(seq, g, omega)
        for a, b, f in zip(times, times[1:], values):
            b = min(b, tau)
            if b <= a:
                continue
            # displacement: +i int e^{-i omega (tau - t)} f dt  (from -f(a+a^dag))
            disp_f += 1j * f * cmath.exp(-1j * omega * tau) * pulses._int_exp(1j * omega, a, b)
            # phase: int K(s) f ds over [a, b], intersected with kernel pieces
            for pa, pb, k0, r in pieces:
                lo, hi = max(a, pa), min(b, pb)
                if hi <= lo:
                    continue
                phase_f += f * (k0 * (hi - lo) + (r * pulses._int_exp(-1j * omega, lo, hi)).imag)
    zeta = pulses.squeezing_parameter(seq, g, omega)
    return MagnusPhases(beta, disp_f, phase_f, zeta)


def _check_force_resolution(seq: PulseSequence, omega: float, times) -> None:
    """Reject series whose steps are coarse relative to both the oscillator
    period and the sequence; single- or few-segment constant forces are exact
    and always allowed."""
    steps = [b - a for a, b in zip(times, times[1:]) if b > a]
    if len(steps) <= 4:
        return
    limit = min(2 * math.pi / omega, seq.total_time) / 4.0
    if max(steps) > limit:
        raise ValueError(
            f"force series under-sampled: step {max(steps):.3g} exceeds {limit:.3g}"
        )

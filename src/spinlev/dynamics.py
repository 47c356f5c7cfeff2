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
        """branch0 for spin 0, branch1 for spin 1."""
        return (self.branch0, self.branch1)[_branch_index(spin, "spin")]

    def observable_phase(self) -> float:
        """Full coherence phase between branches, including the overlap phase."""
        g0, g1 = self.branch0.alpha, self.branch1.alpha
        return self.relative_phase + (np.conj(g1) * g0).imag

    def overlap(self) -> complex:
        """<branch1 | branch0> coherent-state overlap."""
        g0, g1 = self.branch0.alpha, self.branch1.alpha
        return cmath.exp(-abs(g0) ** 2 / 2 - abs(g1) ** 2 / 2 + np.conj(g1) * g0)


def segment_step(theta: float, gamma: complex, c: float, omega: float, dt: float):
    """Evolve one branch through one constant-coefficient segment (exact);
    gamma is a complex or an array of them (theta then becomes an array)."""
    beta = c / omega
    phase1 = (beta * gamma.conjugate()).imag
    g2 = (gamma + beta) * cmath.exp(-1j * omega * dt)
    phase2 = (-beta * g2.conjugate()).imag
    return theta + c * c * dt / omega + phase1 + phase2, g2 - beta


def _branch_index(branch: int, name: str) -> int:
    """A branch label 0 or 1; anything else raises ValueError naming the argument."""
    if branch not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {branch!r}")
    return int(branch)


def _check_coupling(g: float, omega: float) -> None:
    """Raise ValueError unless g is finite and omega finite and > 0."""
    if not math.isfinite(g):
        raise ValueError(f"g must be finite, got {g!r}")
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")


def branch_states(
    seq: PulseSequence,
    g: float,
    omega: float,
    spin_sign: int,
    alpha,
    force=None,
):
    """One spin branch stepped piece by piece through pulses.pieces(seq, force).

    Returns (t, c, states): the piece boundaries t (0, ..., tau), the drive
    coefficient c = spin_sign (-1)^seg g - f of each piece (Hamiltonian term
    -f (a + a^dag)), and the (theta, gamma) at every boundary, starting from
    (0, alpha). alpha is a complex or an array of them, stepped together.
    force is an optional (times, values) piecewise-constant series on a grid
    covering [0, tau]; spin_sign is +1 (branch 0) or -1 (branch 1).
    """
    if spin_sign not in (1, -1):
        raise ValueError(f"spin_sign must be +1 or -1, got {spin_sign!r}")
    _check_coupling(g, omega)
    start, end, seg, f = (x.tolist() for x in pulses.pieces(seq, force))
    c = [spin_sign * (-1) ** k * g - fk for k, fk in zip(seg, f)]
    states = [(0.0, alpha)]
    for a, b, ck in zip(start, end, c):
        states.append(segment_step(*states[-1], ck, omega, b - a))
    return [*start, seq.total_time], c, states


def branch_evolution(
    seq: PulseSequence,
    g: float,
    omega: float,
    spin_sign: int,
    alpha: complex = 0j,
    force=None,
):
    """Final (theta, gamma) for one spin branch, checked as in branch_states."""
    return branch_states(seq, g, omega, spin_sign, complex(alpha), force)[2][-1]


def evolve_state(
    seq: PulseSequence,
    g: float,
    omega: float,
    alpha: complex = 0j,
    force=None,
) -> EntangledState:
    """Evolve (|0> + |1>)/sqrt2 x |alpha> through the sequence."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
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
    Quadratures are q = sqrt2 Re(gamma), p = sqrt2 Im(gamma). g and omega are
    checked as in branch_states.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    spin_sign = 1 - 2 * _branch_index(spin_branch, "spin_branch")
    t_b, c, states = branch_states(seq, g, omega, spin_sign, complex(alpha))
    out = []
    ts = np.linspace(0.0, seq.total_time, n_samples)
    for t, k in zip(ts.tolist(), np.searchsorted(t_b[:-1], ts).tolist()):  # k segments begin before t
        gamma = states[0][1]
        if k:
            _, gamma = segment_step(*states[k - 1], c[k - 1], omega, min(t_b[k], t) - t_b[k - 1])
        out.append((t, math.sqrt(2) * gamma.real, math.sqrt(2) * gamma.imag))
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

    force is None or a boxcar time series (edges, values), values[j] on
    [edges[j], edges[j+1]) and zero outside [edges[0], edges[-1]], with
    finite edges from 0 on that never decrease and one more edge than value
    (or as many, tau closing the last), handled exactly; any other force
    raises ValueError.
    """
    beta, _ = pulses.residual_displacement(seq, g, omega)
    disp_f = 0j
    phase_f = 0.0
    tau = seq.total_time
    if force is not None:
        try:
            edges, values = (list(x) for x in force)
        except (TypeError, ValueError):
            raise ValueError("force must be None or a boxcar series (edges, values), "
                             f"got {type(force).__name__}") from None
        if len(edges) == len(values):
            edges.append(tau)
        if len(edges) != len(values) + 1:
            raise ValueError("force series must be (edges, values) with one more edge than value")
        # the boxcar series is zero outside [edges[0], edges[-1]]
        boxcar = pulses.pieces(seq, ([0.0, *edges, max(edges[-1], tau)], [0.0, *values, 0.0]))
        a, b, k, f = (x[boxcar[3] != 0] for x in boxcar)
        half = 0.5 * omega * (b - a)
        # phase: int K(s) f ds, each piece integrated back from its end
        kb, pb = pulses._kernel_at(pulses._kernel_ends(seq, g, omega), omega, k, b)
        _check_force_resolution(seq, omega, edges)  # after the omega > 0 check of _kernel_at
        phase_f = g * float(f @ pulses._kernel_integral(kb, pb, 1.0 - 2.0 * (k % 2), omega, 2.0 * half))
        # displacement: +i int e^{-i omega (tau - t)} f dt (from -f(a+a^dag)), per piece
        # in the half-angle form e^{i omega (a+b)/2} 2 sin(omega (b-a)/2)/omega
        disp_f = (2j / omega) * cmath.exp(-1j * omega * tau) * complex(
            np.sum(f * np.sin(half) * np.exp(0.5j * omega * (a + b))))
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

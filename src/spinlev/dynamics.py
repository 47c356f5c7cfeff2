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

Every route checks g and omega (pulses.check_coupling) and alpha in
branch_states. The force phase and displacement are pulses.force_response.
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
    (0, alpha). alpha is a finite complex or an array of them, stepped
    together. force is an optional (times, values) piecewise-constant series
    on a grid covering [0, tau]; spin_sign is +1 (branch 0) or -1 (branch 1);
    g and omega pass pulses.check_coupling.
    """
    if spin_sign not in (1, -1):
        raise ValueError(f"spin_sign must be +1 or -1, got {spin_sign!r}")
    pulses.check_coupling(g, omega)
    if not (np.isfinite(alpha).all() if isinstance(alpha, np.ndarray) else cmath.isfinite(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
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
    t0, g0 = branch_evolution(seq, g, omega, +1, alpha, force)
    t1, g1 = branch_evolution(seq, g, omega, -1, alpha, force)
    w = 1.0 / math.sqrt(2.0)
    return EntangledState(
        Branch(w * cmath.exp(1j * t0), g0),
        Branch(w * cmath.exp(1j * t1), g1),
        t0 - t1,
    )


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
    Quadratures are q = sqrt2 Re(gamma), p = sqrt2 Im(gamma). g, omega and
    alpha are checked as in branch_states.
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

r"""Pulse sequences and their per-sequence scalar functionals.

A sequence of instantaneous pi pulses modulates the spin-motion coupling as
G(t) = g * s(t), where the sign profile s(t) starts at +1 and flips at each
pulse time. Everything here is computed from closed-form antiderivatives over
the constant-sign segments; no numerical quadrature is used.

The three functionals:

* residual displacement  beta = -i int_0^tau e^{-i omega (tau-t)} G(t) dt,
  with backaction Delta n = |beta|^2 (phonons per sigma_z unit);
* phase response kernel  K(s) = int_s^tau G(t) sin(omega (t-s)) dt, the spin
  phase accumulated per unit impulse of force delivered at time s (in the
  per-(sigma_z/2) normalization whose DC limit gives omega tau^3/6, /8, /32
  for Ramsey / echo / two-pulse Carr-Purcell), and its Fourier transform
  chi(nu) = (2 pi)^{-1/2} int_0^tau K(s) e^{-i nu s} ds;
* squeezing parameter  zeta = int_0^tau int_0^t sin(omega(t-t')) G(t) G(t') dt' dt.
"""

from __future__ import annotations

import enum
import math
import cmath
from dataclasses import dataclass

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


class SequenceKind(enum.Enum):
    RAMSEY = "ramsey"
    HAHN_ECHO = "hahn_echo"
    CARR_PURCELL2 = "carr_purcell2"
    CUSTOM = "custom"


# The kinds with a fixed pulse list, in the order tables and sweeps list them.
NAMED_KINDS = (SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2)


@dataclass(frozen=True)
class PulseSequence:
    """A total free-evolution time plus an ordered list of pi-pulse times."""

    kind: SequenceKind
    total_time: float
    pulse_times: tuple[float, ...]

    def __post_init__(self) -> None:
        tau = self.total_time
        if not (tau > 0 and math.isfinite(tau)):
            raise ValueError(f"total_time must be finite and > 0, got {tau!r}")
        times = self.pulse_times
        if any(not (0.0 < t < tau) for t in times):
            raise ValueError("pulse times must lie strictly inside (0, tau)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("pulse times must be strictly increasing")
        if self.kind is SequenceKind.RAMSEY and times:
            raise ValueError("Ramsey has no pulses")
        if self.kind is SequenceKind.HAHN_ECHO and not _times_close(times, (tau / 2,)):
            raise ValueError("HahnEcho pulse list must be [tau/2]")
        if self.kind is SequenceKind.CARR_PURCELL2 and not _times_close(
            times, (tau / 4, 3 * tau / 4)
        ):
            raise ValueError("CarrPurcell2 pulse list must be [tau/4, 3 tau/4]")

    @property
    def tau(self) -> float:
        return self.total_time


def _times_close(times: tuple[float, ...], ref: tuple[float, ...]) -> bool:
    return len(times) == len(ref) and all(
        math.isclose(t, r, rel_tol=1e-12, abs_tol=0.0) for t, r in zip(times, ref)
    )


def ramsey(tau: float) -> PulseSequence:
    return PulseSequence(SequenceKind.RAMSEY, tau, ())


def hahn_echo(tau: float) -> PulseSequence:
    return PulseSequence(SequenceKind.HAHN_ECHO, tau, (tau / 2,))


def carr_purcell2(tau: float) -> PulseSequence:
    return PulseSequence(SequenceKind.CARR_PURCELL2, tau, (tau / 4, 3 * tau / 4))


def custom(tau: float, pulse_times) -> PulseSequence:
    return PulseSequence(SequenceKind.CUSTOM, tau, tuple(float(t) for t in pulse_times))


def make_sequence(kind: SequenceKind | str, tau: float, pulse_times=None) -> PulseSequence:
    kind = SequenceKind(kind) if not isinstance(kind, SequenceKind) else kind
    if kind is SequenceKind.RAMSEY:
        return ramsey(tau)
    if kind is SequenceKind.HAHN_ECHO:
        return hahn_echo(tau)
    if kind is SequenceKind.CARR_PURCELL2:
        return carr_purcell2(tau)
    return custom(tau, pulse_times or ())


def sign_profile(seq: PulseSequence, t: float) -> int:
    """s(t): +1 before the first pulse, flipping at each pulse, right-continuous."""
    if not (0.0 <= t <= seq.total_time):
        raise ValueError(f"t={t!r} outside [0, tau={seq.total_time!r}]")
    flips = sum(1 for tp in seq.pulse_times if tp <= t)
    return 1 if flips % 2 == 0 else -1


def segments(seq: PulseSequence) -> list[tuple[float, float, int]]:
    """Constant-sign segments as (start, end, sign)."""
    edges = (0.0, *seq.pulse_times, seq.total_time)
    out = []
    sign = 1
    for a, b in zip(edges, edges[1:]):
        out.append((a, b, sign))
        sign = -sign
    return out


def _phi1(z: complex) -> complex:
    """(e^z - 1)/z, stable at z -> 0."""
    if abs(z) < 1e-5:
        return 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return (cmath.exp(z) - 1.0) / z


def _int_exp(z: complex, a: float, b: float) -> complex:
    """int_a^b e^{z s} ds, exact with a stable z -> 0 limit."""
    d = b - a
    return cmath.exp(z * a) * d * _phi1(z * d)


def residual_displacement(seq: PulseSequence, g: float, omega: float) -> tuple[complex, float]:
    """(beta, delta_n): residual coherent displacement per sigma_z unit and |beta|^2."""
    if omega < 0:
        raise ValueError("omega must be >= 0")
    acc = 0.0 + 0.0j
    for a, b, s in segments(seq):
        acc += s * _int_exp(1j * omega, a, b)
    beta = -1j * g * cmath.exp(-1j * omega * seq.total_time) * acc
    return beta, abs(beta) ** 2


def delta_n_closed_form(kind: SequenceKind, g: float, omega: float, tau: float) -> float:
    """Closed-form Delta n for the named sequence kinds."""
    th = omega * tau
    r = g * g / (omega * omega)
    if kind is SequenceKind.RAMSEY:
        return 4.0 * r * math.sin(th / 2) ** 2
    if kind is SequenceKind.HAHN_ECHO:
        return 16.0 * r * math.sin(th / 4) ** 4
    if kind is SequenceKind.CARR_PURCELL2:
        return r * 2**6 * math.sin(th / 8) ** 4 * math.sin(th / 4) ** 2
    raise ValueError("no closed form for custom sequences")


def _kernel_pieces(seq: PulseSequence, g: float, omega: float):
    """Per-segment representation of K(s).

    On segment k with sign s_k, K(s) = K0_k + Im(R_k e^{-i omega s}) where
    K0_k = s_k g / omega and R_k collects the segment-boundary phasors.
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    segs = segments(seq)
    pieces = []
    # tail sums: R_k = (g/(i omega)) [ s_k e^{i omega b_k} + sum_{j>k} s_j (e^{i omega b_j} - e^{i omega a_j}) ]
    tail = 0.0 + 0.0j
    for a, b, s in reversed(segs):
        r = (g / (1j * omega)) * (s * cmath.exp(1j * omega * b)) + tail
        pieces.append((a, b, s * g / omega, r))
        tail = r - (g / (1j * omega)) * (s * cmath.exp(1j * omega * a))
    pieces.reverse()
    return pieces


def phase_kernel(seq: PulseSequence, g: float, omega: float, s):
    """K(s) = int_s^tau G(t) sin(omega (t-s)) dt, vectorized over s."""
    s = np.asarray(s, dtype=float)
    if np.any((s < 0) | (s > seq.total_time)):
        raise ValueError("s outside [0, tau]")
    out = np.empty_like(s)
    for a, b, k0, r in _kernel_pieces(seq, g, omega):
        m = (s >= a) & (s <= b)
        out[m] = k0 + np.imag(r * np.exp(-1j * omega * s[m]))
    return out


def _kernel_transform(pieces, omega: float, nu: float) -> complex:
    """int_0^tau K(s) e^{-i nu s} ds from precomputed kernel pieces."""
    total = 0.0 + 0.0j
    for a, b, k0, r in pieces:
        total += k0 * _int_exp(-1j * nu, a, b)
        total += (r * _int_exp(-1j * (omega + nu), a, b)
                  - r.conjugate() * _int_exp(1j * (omega - nu), a, b)) / 2j
    return total


def spectral_response(seq: PulseSequence, g: float, omega: float, nu: float) -> complex:
    """int_0^tau K(s) e^{-i nu s} ds (the kernel transform without the 1/sqrt(2 pi))."""
    return _kernel_transform(_kernel_pieces(seq, g, omega), omega, nu)


def response_kernel(seq: PulseSequence, g: float, omega: float, nu: float) -> complex:
    """chi(nu) = (2 pi)^{-1/2} int_0^tau K(s) e^{-i nu s} ds."""
    return spectral_response(seq, g, omega, nu) / SQRT_2PI


def dc_phase(seq: PulseSequence, g: float, omega: float) -> float:
    """phi/f at nu = 0: int_0^tau K(s) ds (signed)."""
    return spectral_response(seq, g, omega, 0.0).real


def kernel_l2(seq: PulseSequence, g: float, omega: float) -> float:
    """int_0^tau K(s)^2 ds, closed form per segment."""
    total = 0.0
    for a, b, k0, r in _kernel_pieces(seq, g, omega):
        rho, delta = abs(r), cmath.phase(r) if r != 0 else 0.0
        d = b - a
        # K = k0 + rho sin(delta - omega s)
        total += k0 * k0 * d + rho * rho * d / 2.0
        ca = delta - omega * a
        cb = delta - omega * b
        # int sin(delta - omega s) ds = (cos(delta - omega s))/omega |_a^b... d/ds cos(c-ws) = w sin(..)
        total += 2.0 * k0 * rho * (math.cos(cb) - math.cos(ca)) / omega
        # int sin^2 = (s - sin(2(delta-omega s))/(-2 omega)...)/2
        total += rho * rho * (math.sin(2 * cb) - math.sin(2 * ca)) / (4.0 * omega)
    return total


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


def squeezing_parameter(seq: PulseSequence, g: float, omega: float) -> float:
    """zeta = int_0^tau int_0^t sin(omega(t-t')) G(t) G(t') dt' dt, piecewise exact."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    # zeta = Im int_0^tau G(t) e^{i omega t} E(t) dt with E(t) = int_0^t G(t') e^{-i omega t'} dt'
    total = 0.0 + 0.0j
    e_acc = 0.0 + 0.0j
    for a, b, s in segments(seq):
        # E(t) = e_acc + s g (e^{-i omega t} - e^{-i omega a})/(-i omega) on this segment
        c0 = e_acc + s * g * cmath.exp(-1j * omega * a) / (1j * omega)
        # term1: int_a^b s g e^{i omega t} c0 dt
        total += s * g * c0 * _int_exp(1j * omega, a, b)
        # term2: int_a^b s g e^{i omega t} * (-s g e^{-i omega t}/(i omega)) dt
        total += -(g * g) * (b - a) / (1j * omega)
        e_acc += s * g * _int_exp(-1j * omega, a, b)
    return total.imag


def zeta_closed_form(kind: SequenceKind, g: float, omega: float, tau: float) -> float:
    """Column-2 closed forms for the named kinds (signed as the canonical integral)."""
    th = omega * tau
    r = g * g / (omega * omega)
    if kind is SequenceKind.RAMSEY:
        return r * (th - math.sin(th))
    if kind is SequenceKind.HAHN_ECHO:
        return r * (th - 4.0 * math.sin(th / 2) + math.sin(th))
    if kind is SequenceKind.CARR_PURCELL2:
        return r * (
            th
            - 4.0 * math.sin(th / 4)
            - 4.0 * math.sin(th / 2)
            + 4.0 * math.sin(3 * th / 4)
            - math.sin(th)
        )
    raise ValueError("no closed form for custom sequences")


@dataclass(frozen=True)
class LeadingOrderRow:
    """Leading-order (omega tau << 1) per-sequence scalings."""

    phi_per_gf: float
    delta_n_per_g2: float
    force_sql_scale: float
    g_star_scale: float
    in_regime: bool


_LEADING = {
    SequenceKind.RAMSEY: (
        lambda w, t: w * t**3 / 6.0,
        lambda w, t: t**2,
        lambda w, t: 6.0 / (w * t**2),
        lambda w, t: 1.0 / t,
    ),
    SequenceKind.HAHN_ECHO: (
        lambda w, t: w * t**3 / 8.0,
        lambda w, t: w**2 * t**4 / 16.0,
        lambda w, t: 2.0 / t,
        lambda w, t: 4.0 / (w * t**2),
    ),
    SequenceKind.CARR_PURCELL2: (
        lambda w, t: w * t**3 / 32.0,
        lambda w, t: w**4 * t**6 / 1024.0,
        lambda w, t: w,
        lambda w, t: 32.0 / (w**2 * t**3),
    ),
}


def leading_order_row(kind: SequenceKind, omega: float, tau: float) -> LeadingOrderRow:
    """Leading-order row values; flags out-of-regime omega tau instead of erroring,
    but raises ValueError where a scaling overflows (omega tau near 0 or huge)."""
    if kind not in _LEADING:
        raise ValueError("leading-order rows exist only for the named kinds")
    try:
        values = [scaling(omega, tau) for scaling in _LEADING[kind]]
    except (ZeroDivisionError, OverflowError):
        values = [math.inf]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"leading-order {kind.value} scalings are not finite at "
                         f"omega_tau = {omega * tau!r}")
    return LeadingOrderRow(*values, in_regime=omega * tau < 0.5)

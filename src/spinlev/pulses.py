r"""Pulse sequences and their per-sequence scalar functionals.

A sequence of instantaneous pi pulses modulates the spin-motion coupling as
G(t) = g * s(t), where the sign profile s(t) starts at +1 and flips at each
pulse time. Everything here is computed from closed-form antiderivatives over
the constant-sign segments (pieces); no numerical quadrature is used.

The three functionals:

* residual displacement  beta = -i int_0^tau e^{-i omega (tau-t)} G(t) dt,
  with backaction Delta n = |beta|^2 (phonons per sigma_z unit);
* phase response kernel  K(s) = int_s^tau G(t) sin(omega (t-s)) dt, the spin
  phase accumulated per unit impulse of force delivered at time s (in the
  per-(sigma_z/2) normalization whose DC limit gives omega tau^3/6, /8, /32
  for Ramsey / echo / two-pulse Carr-Purcell), and its Fourier transform
  T(nu) = int_0^tau K(s) e^{-i nu s} ds (spectral_response; the response
  chi(nu) = T(nu) / sqrt(2 pi));
* squeezing parameter  zeta = int_0^tau int_0^t sin(omega(t-t')) G(t) G(t') dt' dt.

All but T(nu), force_response's force functionals included, take K from one
backward recursion, _kernel_ends; every one checks (g, omega, tau) by check_coupling.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .units import _finite, _finite_positive, _finite_result, _in_range


@dataclass(frozen=True)
class PulseSequence:
    """A total free-evolution time plus an ordered list of pi-pulse times;
    two sequences with the same pulse list are equal, however they were built."""

    total_time: float
    pulse_times: tuple[float, ...]

    def __post_init__(self) -> None:
        tau = self.total_time
        _finite_positive(total_time=tau)
        times = self.pulse_times
        if any(not (0.0 < t < tau) for t in times):
            raise ValueError("pulse times must lie strictly inside (0, tau)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("pulse times must be strictly increasing")


def ramsey(tau: float) -> PulseSequence:
    return PulseSequence(tau, ())


def hahn_echo(tau: float) -> PulseSequence:
    return PulseSequence(tau, (tau / 2,))


def carr_purcell2(tau: float) -> PulseSequence:
    return PulseSequence(tau, (tau / 4, 3 * tau / 4))


def custom(tau: float, pulse_times) -> PulseSequence:
    return PulseSequence(tau, tuple(float(t) for t in pulse_times))


class _Named(NamedTuple):
    """What is known in closed form about a named kind: its constructor, Delta n
    and zeta as functions of (r, th) = (g^2/omega^2, omega tau), and the four
    leading-order scalings of LeadingOrderRow as functions of (omega, tau)."""

    make: Callable[[float], PulseSequence]
    delta_n: Callable[[float, float], float]
    zeta: Callable[[float, float], float]
    leading: tuple[Callable[[float, float], float], ...]


# One entry per kind with a fixed pulse list, keyed by its name, in the order tables and sweeps list them.
_NAMED = {
    "ramsey": _Named(
        ramsey,
        lambda r, th: 4.0 * r * math.sin(th / 2) ** 2,
        lambda r, th: r * (th - math.sin(th)),
        (lambda w, t: w * t**3 / 6.0,
         lambda w, t: t**2,
         lambda w, t: 6.0 / (w * t**2),
         lambda w, t: 1.0 / t),
    ),
    "hahn_echo": _Named(
        hahn_echo,
        lambda r, th: 16.0 * r * math.sin(th / 4) ** 4,
        lambda r, th: r * (th - 4.0 * math.sin(th / 2) + math.sin(th)),
        (lambda w, t: w * t**3 / 8.0,
         lambda w, t: w**2 * t**4 / 16.0,
         lambda w, t: 2.0 / t,
         lambda w, t: 4.0 / (w * t**2)),
    ),
    "carr_purcell2": _Named(
        carr_purcell2,
        lambda r, th: r * 2**6 * math.sin(th / 8) ** 4 * math.sin(th / 4) ** 2,
        lambda r, th: r * (th - 4.0 * math.sin(th / 4) - 4.0 * math.sin(th / 2)
                           + 4.0 * math.sin(3 * th / 4) - math.sin(th)),
        (lambda w, t: w * t**3 / 32.0,
         lambda w, t: w**4 * t**6 / 1024.0,
         lambda w, t: w,
         lambda w, t: 32.0 / (w**2 * t**3)),
    ),
}
NAMED_KINDS = tuple(_NAMED)


class _Name(str, enum.Enum):
    """An enum whose members are their value strings, and print as them."""

    __str__ = str.__str__
    __format__ = str.__format__


# The named kinds plus "custom"; each member equals its name, so either may be passed as a kind.
SequenceKind = _Name("SequenceKind", [(n.upper(), n) for n in (*NAMED_KINDS, "custom")], module=__name__)


def _named(kind: str, missing: str) -> _Named:
    """The table entry of a kind; ValueError(missing) for custom or an unknown name."""
    try:
        return _NAMED[kind]
    except (KeyError, TypeError):
        raise ValueError(missing) from None


def make_sequence(kind: str, tau: float, pulse_times=None) -> PulseSequence:
    """The sequence of a kind at total time tau: a named kind builds its own
    pulse list, so it takes no pulse_times; custom needs them."""
    if kind == "custom":
        if pulse_times is None:
            raise ValueError("a custom sequence needs its pulse_times")
        return custom(tau, pulse_times)
    make = _named(kind, f"unknown sequence {kind!r}").make
    if pulse_times is not None:
        raise ValueError(f"{kind} builds its own pulse times; got pulse_times={pulse_times!r}")
    return make(tau)


def segment_index(seq: PulseSequence, t):
    """Index of the segment that holds t: the number of pulses at or before t
    (so a pulse time starts the next segment); vectorized over t."""
    return np.searchsorted(np.asarray(seq.pulse_times, dtype=float), t, side="right")


def pieces(seq: PulseSequence, force=None) -> tuple[np.ndarray, ...]:
    """The pieces of [0, tau] on which the pulse sign and the force are both
    constant, as arrays (start, end, seg, f), after the checks of
    _checked_force: seg indexes the pulse segment that holds the piece (sign
    (-1)**seg), f is the force there (0 without one), read at the piece
    start, as a midpoint can round onto the next knot on a one-ulp piece."""
    cuts = np.array((0.0, *seq.pulse_times))
    if force is None:
        start, seg, f = cuts, np.arange(cuts.size), np.zeros(cuts.size)
    else:
        times, values = _checked_force(seq, force)
        start = np.unique(np.concatenate((times[times < seq.total_time], cuts)))
        seg = segment_index(seq, start)
        f = values[np.minimum(np.searchsorted(times, start, side="right") - 1, values.size - 1)]
    return start, np.append(start[1:], seq.total_time), seg, f


def _checked_force(seq: PulseSequence, force) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of a force series as float arrays, once its knots are
    finite, never decrease, start at 0 and cover [0, tau] and it holds one
    finite value per interval, or per knot (the last value then extends the
    series, as the last interval's value does past tau)."""
    try:
        times, values = force
    except (TypeError, ValueError):
        raise ValueError(f"force must be a series (times, values), got {type(force).__name__}") from None
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if not np.isfinite(times).all() or np.any(np.diff(times) < 0):
        raise ValueError("force knots must be finite and must not decrease")
    if not times.size or times[0] != 0.0 or times[-1] < seq.total_time - 1e-15 * seq.total_time:
        raise ValueError("force grid must start at 0 and cover [0, tau]")
    if values.size not in (times.size - 1, times.size):
        raise ValueError("force series needs one value per interval or one per knot")
    if not np.isfinite(values).all():
        raise ValueError("force values must be finite")
    return times, values


def check_coupling(g: float, omega: float, tau: float) -> None:
    """Raise ParameterError unless omega and tau are finite and > 0, and g and
    omega tau finite (so every segment phase is), checked in that order."""
    _finite_positive(omega=omega, tau=tau)
    _finite(g=g, omega_tau=omega * tau)


def _kernel_ends(seq: PulseSequence, g: float, omega: float):
    """(t, k, p): the edges 0, t_1, ..., t_n, tau and, at unit coupling, K and
    p = K'/omega there. K'' + omega^2 K = omega G is stepped back from
    K(tau) = K'(tau) = 0 over each segment (sign s, end b, th = omega (b - x)):
    K = K_b cos th - p_b sin th + s (1 - cos th)/omega, p = K_b sin th
    + p_b cos th - s sin th/omega, with no term that cancels at small omega tau.
    Scaling by g afterwards keeps Delta n, zeta and int K^2 exactly homogeneous in g."""
    check_coupling(g, omega, seq.total_time)
    t = (0.0, *seq.pulse_times, seq.total_time)
    k, p = [0.0] * len(t), [0.0] * len(t)
    for j in range(len(t) - 2, -1, -1):
        s, theta = (-1.0) ** j, omega * (t[j + 1] - t[j])
        c, sn, h = math.cos(theta), math.sin(theta), math.sin(0.5 * theta)
        v, w = 2.0 * h * h / omega, sn / omega
        k[j], p[j] = k[j + 1] * c - p[j + 1] * sn + s * v, k[j + 1] * sn + p[j + 1] * c - s * w
    return np.array(t), np.array(k), np.array(p)


def _kernel_at(ends, omega: float, seg, x):
    """(K, p) of _kernel_ends at points x of the segments seg."""
    t, k, p = ends
    theta = omega * (t[seg + 1] - x)
    s = 1.0 - 2.0 * (seg % 2)
    kb, pb, cos, sin = k[seg + 1], p[seg + 1], np.cos(theta), np.sin(theta)
    return (kb * cos - pb * sin + s * (2.0 * np.sin(0.5 * theta) ** 2 / omega),
            kb * sin + pb * cos - s * (sin / omega))


# Taylor coefficients of x^3, x^5, ..., x^25 in S(x) = x - sin x and in
# J(x) = int_0^x (1 - cos u)^2 du = 2 S(x) - S(2x)/4: below 1e-17 relative at x = 1
_ODD = np.arange(3, 27, 2)
_TAYLOR = np.array([[(-1) ** j / math.factorial(n), (-1) ** j * (2 - 2 ** (n - 2)) / math.factorial(n)]
                    for j, n in enumerate(_ODD.tolist())])


def _sine_integrals(x):
    """(S(x), J(x)) for an array x >= 0; their closed forms x - sin x and
    (3 S(x) - sin x (1 - cos x))/2 cancel below x = 1, where the series is used."""
    small = x < 1.0
    if small.all():
        return ((x[:, None] ** _ODD) @ _TAYLOR).T
    sin = np.sin(x)
    x_sin = x - sin
    closed = np.array((x_sin, 1.5 * x_sin - sin * np.sin(0.5 * x) ** 2))
    if not small.any():
        return closed
    return np.where(small, ((np.minimum(x, 1.0)[:, None] ** _ODD) @ _TAYLOR).T, closed)


def _segment_terms(s, omega: float, phi):
    """(c, sin phi, 1 - cos phi) of segments of sign s and phase length phi, on
    which K = k cos u - p sin u + c (1 - cos u) in u = omega (b - x), c = s/omega,
    with k and p the values of _kernel_ends at the segment end b."""
    return s / omega, np.sin(phi), 2.0 * np.sin(0.5 * phi) ** 2


def _kernel_integral(k, p, s, omega: float, phi):
    """int K dx over [b - phi/omega, b] (_segment_terms); only S cancels."""
    c, sin, vers = _segment_terms(s, omega, phi)
    return (k * sin - p * vers + c * _sine_integrals(phi)[0]) / omega


def _kernel_square_integral(k, p, s, omega: float, phi):
    """int K^2 dx over [b - phi/omega, b] (_segment_terms); only S and J cancel."""
    c, sin, vers = _segment_terms(s, omega, phi)
    x_sin, vers2 = _sine_integrals(phi)
    # int cos^2 = (phi + sin cos)/2, int sin^2 = (S + sin (1 - cos))/2,
    # int cos (1 - cos) = S - J, int sin (1 - cos) = (1 - cos)^2/2
    square = (0.5 * k * k * (phi + sin * np.cos(phi)) + 0.5 * p * p * (x_sin + sin * vers)
              + c * c * vers2 + 2.0 * c * k * (x_sin - vers2) - k * p * sin * sin - c * p * vers * vers)
    return square / omega


def residual_displacement(seq: PulseSequence, g: float, omega: float) -> tuple[complex, float]:
    """(beta, delta_n): residual coherent displacement per sigma_z unit and
    |beta|^2, with beta = g e^{-i omega tau} (K(0) + i K'(0)/omega)."""
    k0, p0 = (float(x[0]) for x in _kernel_ends(seq, g, omega)[1:])
    beta = g * cmath.exp(-1j * omega * seq.total_time) * complex(k0, p0)
    return _finite_result("residual_displacement is not finite", (beta, g * g * (k0 * k0 + p0 * p0)),
                          g=g, omega=omega, tau=seq.total_time)


def delta_n_closed_form(kind: str, g: float, omega: float, tau: float) -> float:
    """Closed-form Delta n for the named sequence kinds; (g, omega, tau) pass
    check_coupling, and the result is finite."""
    closed = _named(kind, "no closed form for custom sequences").delta_n
    check_coupling(g, omega, tau)
    return _in_range("delta_n_closed_form is not finite", lambda: closed(g * g / (omega * omega), omega * tau),
                     g=g, omega=omega, tau=tau)


def phase_kernel(seq: PulseSequence, g: float, omega: float, s):
    """K(s) = int_s^tau G(t) sin(omega (t-s)) dt, vectorized over s."""
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0) & (s <= seq.total_time)):  # NaN is not in [0, tau] either
        raise ValueError("s outside [0, tau]")
    return g * _kernel_at(_kernel_ends(seq, g, omega), omega, segment_index(seq, s), s)[0]


def force_response(seq: PulseSequence, g: float, omega: float, force) -> tuple[float, complex]:
    """(phase, displacement) of a force series (times, values) as pieces takes it:
    int K(s) f(s) ds per (sigma_z/2), and the final displacement
    +i int e^{-i omega (tau - t)} f dt under -f (a + a^dag), exact per piece.
    A series with more than four positive-length intervals from its first
    nonzero value to its last is under-sampled (ValueError) where one of them
    exceeds min(2 pi/omega, tau)/4; zero stretches around the force are free."""
    ends = _kernel_ends(seq, g, omega)
    times, values = _checked_force(seq, force)
    start, end, seg, f = pieces(seq, (times, values))
    nonzero = np.flatnonzero(values[:times.size - 1])
    if nonzero.size:
        steps = np.diff(times[nonzero[0]:nonzero[-1] + 2])
        steps = steps[steps > 0]
        limit = min(2 * math.pi / omega, seq.total_time) / 4.0
        if steps.size > 4 and steps.max() > limit:
            raise ValueError(f"force series under-sampled: step {steps.max():.3g} exceeds {limit:.3g}")
    a, b, k, f = (x[f != 0] for x in (start, end, seg, f))
    half = 0.5 * omega * (b - a)

    def response():
        kb, pb = _kernel_at(ends, omega, k, b)
        phase = g * float(f @ _kernel_integral(kb, pb, 1.0 - 2.0 * (k % 2), omega, 2.0 * half))
        # each piece leaves e^{i omega (a+b)/2} 2 sin(omega (b-a)/2)/omega, rotated to tau
        return phase, (2j / omega) * cmath.exp(-1j * omega * seq.total_time) * complex(
            np.sum(f * np.sin(half) * np.exp(0.5j * omega * (a + b))))
    return _in_range("force_response is not finite", response, g=g, omega=omega, tau=seq.total_time)


@functools.lru_cache(maxsize=None)
def _jumps(n_edges: int) -> np.ndarray:
    """The jumps of s(t) at the pulses and at tau: -2, +2, ..., then -s(tau^-)."""
    w = np.full(n_edges, 2.0)
    w[::2] = -2.0
    w[-1] = -1.0 if n_edges % 2 else 1.0
    w.flags.writeable = False
    return w


def _edges(seq: PulseSequence) -> tuple[np.ndarray, np.ndarray]:
    """(t_e / 2, w_e): half of each pulse time and of tau, and the jump of s(t) there.

    With s(t) = 0 outside [0, tau), s jumps by +1 at t = 0, by -2, +2, ...
    at the pulses and by -s(tau^-) at tau. The jump at t = 0 drops out of
    every sum below, so it is not listed.
    """
    half_t = 0.5 * np.array((*seq.pulse_times, seq.total_time))
    return half_t, _jumps(half_t.size)


def _phasor_sums(a: np.ndarray, b: np.ndarray, half_t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_e w_e sin(a t_e/2) e^{i b t_e/2} / a for each pair (a, b), with the
    limit sum_e w_e (t_e/2) e^{i b t_e/2} where a = 0.

    At b = a this is (1/2i) sum_e w_e (e^{i a t_e} - 1)/a, and at b = a + 2 omega
    it is e^{i omega t_e} times that at a. Each term is formed as
    (t_e/2) (sin y / y) e^{i b t_e/2} with y = a t_e/2, so no digit is lost
    when a t_e is small and nothing overflows when a is tiny. The sums run
    along each row, so an element's value does not depend on the other
    pairs it is evaluated with.
    """
    y = np.multiply.outer(a, half_t)
    if y.all():
        sinc = np.sin(y) / y
    else:
        zero = y == 0.0
        sinc = np.sin(y) / np.where(zero, 1.0, y)
        sinc[zero] = 1.0
    return (sinc * (half_t * w) * np.exp(np.multiply.outer(b, 1j * half_t))).sum(axis=-1)


_SERIES_TERMS = 20
_SERIES_PHASE = np.array([1.0, 1j, -1.0, -1j])[np.arange(_SERIES_TERMS) % 4]  # i^k
_SERIES_INV_FACT = np.array([1.0 / math.factorial(k + 3) for k in range(_SERIES_TERMS)])
_SERIES_GAP = np.subtract.outer(np.arange(_SERIES_TERMS), np.arange(_SERIES_TERMS)).T  # k - j
_SERIES_EVEN = (_SERIES_GAP >= 0) & (_SERIES_GAP % 2 == 0)


def _series_route(x, half_t, w, omega: float) -> np.ndarray:
    """conj T(x) / g where x tau <= 1 and omega tau <= 1, from the moments of the edges.

    T = i g omega F[0, x, omega, -omega], the third divided difference of
    F(x) = sum_e w_e e^{-i x t_e}, whose Taylor series is
    T/g = -omega tau^3 sum_k (-i)^k mu_{k+3} h_k(x tau, omega tau, -omega tau)/(k+3)!
    with mu_m = sum_e w_e (t_e/tau)^m and h_k(x, omega, -omega) the sum of
    x^j omega^(k-j) over even k - j; its conjugate takes i^k for (-i)^k.
    No term cancels, so the low moments that vanish for echo-like sequences
    cost no precision; 20 terms leave a remainder below 1e-19 of the first.
    """
    tau = 2.0 * half_t[-1]
    mu = ((half_t / half_t[-1]) ** np.arange(3, _SERIES_TERMS + 3)[:, None] * w).sum(axis=1)
    a = _SERIES_PHASE * mu * _SERIES_INV_FACT
    # coefficient of (x tau)^j: b_j = sum_{k >= j, k - j even} a_k (omega tau)^(k - j)
    b = np.where(_SERIES_EVEN, (omega * tau) ** np.maximum(_SERIES_GAP, 0), 0.0) @ a
    powers = np.ones((x.size, _SERIES_TERMS))
    np.cumprod(np.broadcast_to((x * tau)[:, None], (x.size, _SERIES_TERMS - 1)), axis=1,
               out=powers[:, 1:])
    return -omega * tau ** 3 * (powers * b).sum(axis=1)


def spectral_response(seq: PulseSequence, g: float, omega: float, nu):
    r"""T(nu) = int_0^tau K(s) e^{-i nu s} ds (the kernel transform without the
    1/sqrt(2 pi)), for a scalar nu (a complex) or an array of nu (an array).

    K'' + omega^2 K = omega G with K(tau) = K'(tau) = 0, so integrating by
    parts twice gives, for any pulse list,

        T(nu) = (omega Ghat(nu) - omega Re J + i nu Im J) / (omega^2 - nu^2),

    with Ghat(x) = int_0^tau G(t) e^{-i x t} dt, one phasor per pulse edge:
    Ghat(-x) = -2 g C(x) with C from _phasor_sums, and J = Ghat(-omega) from
    the same evaluation. T(-nu) = conj T(nu), so U(x) = T(-x) is formed at
    x = |nu| by one of three routes that agree where they meet:

    * x tau <= 1 and omega tau <= 1: a series in the edge moments
      (_series_route), where the identity would cancel to (omega tau)^2;
    * x <= 2 omega otherwise: the identity with its removable pole at
      x = omega cancelled in closed form (the divided differences
      Ghat[-x, omega] and Ghat[-x, -omega]),
      U = -g [(C(x) - conj C(omega))/(x + omega) + (C(x) - C'(x))/omega]
      with C'(x) = sum_e w_e e^{i omega t_e} sin((x - omega) t_e/2)
      e^{i (x - omega) t_e/2} / (x - omega), another row of _phasor_sums;
    * x > 2 omega: the identity as it stands.

    Every element depends on its own nu alone, so an array call equals the
    scalar calls element by element, bit for bit. Against a 50-digit
    evaluation it stays within 1e-12 relative (1 Hz - 100 kHz at the
    reference device, and random pulse lists with 0 - 64 pulses).
    """
    tau = seq.total_time
    check_coupling(g, omega, tau)
    nus = np.asarray(nu, dtype=float)
    half_t, w = _edges(seq)
    # rows: C(x) for each x, C(omega) for J, and the shifted sums of the pole route
    if nus.ndim == 0:
        xv = abs(float(nus))
        a, b = np.array([xv, omega, xv - omega]), np.array([xv, omega, xv + omega])
        x = a[:1]
    else:
        x = np.abs(nus.ravel())
        xv = float(x.max(initial=0.0))
        a, b = np.concatenate((x, [omega], x - omega)), np.concatenate((x, [omega], x + omega))
    if not math.isfinite(xv * tau):
        raise ValueError(f"signal frequency nu must be finite, with |nu| tau finite, got {nu!r}")
    n = x.size
    c = _phasor_sums(a, b, half_t, w)
    c_w = c[n]

    def route(sel, which):
        xs, cs = x[sel], c[:n][sel]
        if which == 0:
            return g * _series_route(xs, half_t, w, omega)
        if which == 1:
            return -g * ((cs - c_w.conjugate()) / (xs + omega) + (cs - c[n + 1:][sel]) / omega)
        return (-2.0 * g) * (omega * cs - (omega * c_w.real + 1j * xs * c_w.imag)) / (omega * omega - xs * xs)

    def checked(values):  # nu_max: the largest |nu|
        return _in_range("spectral_response is not finite", values, g=g, omega=omega, tau=tau, nu_max=xv)

    if nus.ndim == 0:
        which = 0 if xv * tau <= 1.0 and omega * tau <= 1.0 else 1 if xv <= 2.0 * omega else 2
        value = checked(lambda: complex(route(slice(None), which)[0]))
        return value if nus < 0 else value.conjugate()
    series = (x * tau <= 1.0) & (omega * tau <= 1.0)
    pole = ~series & (x <= 2.0 * omega)
    out = np.empty(n, dtype=complex)
    for which, mask in enumerate((series, pole, ~(series | pole))):
        if mask.any():
            out[mask] = checked(lambda: route(mask, which))
    pos = nus.ravel() >= 0
    out[pos] = out[pos].conjugate()
    return out.reshape(nus.shape)


def dc_phase(seq: PulseSequence, g: float, omega: float) -> float:
    """phi/f at nu = 0: int_0^tau K(s) ds (signed)."""
    return spectral_response(seq, g, omega, 0.0).real


def kernel_l2(seq: PulseSequence, g: float, omega: float) -> float:
    """int_0^tau K(s)^2 ds, closed form per segment."""
    t, k, p = _kernel_ends(seq, g, omega)
    s = 1.0 - 2.0 * (np.arange(t.size - 1) % 2)
    return _in_range("kernel_l2 is not finite", lambda: g * g * float(
        _kernel_square_integral(k[1:], p[1:], s, omega, omega * (t[1:] - t[:-1])).sum()),
        g=g, omega=omega, tau=seq.total_time)


def squeezing_parameter(seq: PulseSequence, g: float, omega: float) -> float:
    """zeta = int_0^tau int_0^t sin(omega(t-t')) G(t) G(t') dt' dt = int_0^tau G K ds."""
    t, k, p = _kernel_ends(seq, g, omega)
    s = 1.0 - 2.0 * (np.arange(t.size - 1) % 2)
    return _in_range("squeezing_parameter is not finite", lambda: g * g * float(
        s @ _kernel_integral(k[1:], p[1:], s, omega, omega * (t[1:] - t[:-1]))), g=g, omega=omega, tau=seq.total_time)


def zeta_closed_form(kind: str, g: float, omega: float, tau: float) -> float:
    """Column-2 closed forms for the named kinds (signed as the canonical integral);
    (g, omega, tau) pass check_coupling, and the result is finite."""
    closed = _named(kind, "no closed form for custom sequences").zeta
    check_coupling(g, omega, tau)
    return _in_range("zeta_closed_form is not finite", lambda: closed(g * g / (omega * omega), omega * tau),
                     g=g, omega=omega, tau=tau)


@dataclass(frozen=True)
class LeadingOrderRow:
    """Leading-order (omega tau << 1) per-sequence scalings."""

    phi_per_gf: float
    delta_n_per_g2: float
    force_sql_scale: float
    g_star_scale: float
    in_regime: bool


def leading_order_row(kind: str, omega: float, tau: float) -> LeadingOrderRow:
    """Leading-order row values for omega and tau finite and > 0; flags
    out-of-regime omega tau instead of erroring, but raises ValueError where a
    scaling overflows (omega tau near 0 or huge)."""
    scalings = _named(kind, "leading-order rows exist only for the named kinds").leading
    _finite_positive(omega=omega, tau=tau)
    values = _in_range(f"leading-order {kind} scalings are not finite",
                       lambda: [scaling(omega, tau) for scaling in scalings], omega_tau=omega * tau)
    return LeadingOrderRow(*values, in_regime=omega * tau < 0.5)

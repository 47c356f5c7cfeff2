r"""Entanglement-witness evaluation for the spin-oscillator system.

The witness is

    W = Var(S_x) + Var(S_y + a_y q + b_y p) + Var(S_z + a_z q + b_z p),

with S_mu = sigma_mu/2 and q, p the dimensionless oscillator quadratures
(vacuum variance 1/2). Separable states obey W >= 1/2 + |a_y b_z - a_z b_y|,
so W below that bound certifies spin-oscillator entanglement.

All closed forms here describe free (pulseless) conditional evolution of an
initially x-polarized spin and a thermal oscillator state with occupation
nbar, parameterized by lam = 2 g / omega. The pulsed scheme maps onto the
same formulas with lam replaced by the effective value omega g tau^2 / 4.

Each closed form is written once, in a kernel that takes the elementary
functions as a namespace `xp`: with numpy (the default) it broadcasts over
arrays of lam, nbar and t, which is how violation_scan and
max_nbar_for_violation evaluate a whole grid in one call; the public
one-point functions (thermal_wb, thermal_wen, noiseless_moments,
bath_deltas, bath_witness) evaluate the same expressions with `math`. The
two agree to within 1e-13 relative (about 1e-15 is the largest difference
seen), not bit for bit: numpy's exp differs from libm's in the last bit for
a few percent of arguments. The `math` evaluation keeps the one-point
values, and so the `verify` report, exactly as the libm closed forms give
them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .units import _finite, _finite_nonnegative, _finite_positive, _finite_result, _in_range, _not_finite


class DegenerateMomentsError(ValueError):
    """Raised when the quadrature covariance block is singular."""


@dataclass(frozen=True)
class WitnessCoefficients:
    """Witness coefficients, floats or arrays, each checked to be finite."""

    a_y: float
    b_y: float
    a_z: float
    b_z: float

    def __post_init__(self) -> None:
        for name in ("a_y", "b_y", "a_z", "b_z"):
            value = getattr(self, name)
            if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
                raise ValueError(f"{name} must be finite")


# The coefficients as the kernels hold them: unchecked, so an overflow shows as NaN in the result.
_GridCoefficients = namedtuple("_GridCoefficients", "a_y b_y a_z b_z")


@dataclass(frozen=True)
class WitnessResult:
    w_b: float
    w_en: float
    w_ratio: float
    n_meas: Optional[int]  # None when w_ratio <= 0 (no violation to resolve)


@dataclass(frozen=True)
class MomentRecord:
    """First and second moments needed to evaluate the witness.

    All covariances are centered; var_* are variances of S_mu = sigma_mu/2.
    """

    mean_sx: float
    mean_sy: float
    mean_sz: float
    mean_q: float
    mean_p: float
    var_sx: float
    var_sy: float
    var_sz: float
    var_q: float
    var_p: float
    cov_qp: float
    cov_syq: float
    cov_syp: float
    cov_szq: float
    cov_szp: float


def make_result(w_b: float, w_en: float) -> WitnessResult:
    """The violation ratio and shot count of a bound w_b (finite and > 0) and a
    witness value w_en (finite); the ratio must be finite too."""
    _finite_positive(w_b=w_b)
    _finite(w_en=w_en)
    ratio = _finite_result("w_ratio is not finite", (w_b - w_en) / w_b, w_b=w_b, w_en=w_en)
    n = math.ceil(ratio ** -2) if ratio > 0 else None
    return WitnessResult(w_b, w_en, ratio, n)


def _point(omega: float, t: float, omega_l: float = 0.0, **nonnegative: float) -> None:
    """The domain of the one-point closed forms: omega_l finite, omega finite
    and > 0, t and each of nonnegative (nbar, nbar_over_q) finite and >= 0.
    Their result checks name a lam that is not finite."""
    _finite(omega_l=omega_l)
    _finite_positive(omega=omega)
    _finite_nonnegative(t=t, **nonnegative)


def noiseless_moments(lam: float, nbar: float, omega: float, omega_l: float, t: float) -> MomentRecord:
    """Exact moments of the conditionally displaced thermal state at time t."""
    _point(omega, t, omega_l, nbar=nbar)
    return _in_range("noiseless_moments is not finite", lambda: _moments(lam, nbar, omega, omega_l, t, math),
                     lam=lam, nbar=nbar, omega=omega, omega_l=omega_l, t=t)


def _moments(lam, nbar, omega, omega_l, t, xp=np) -> MomentRecord:
    """noiseless_moments, broadcasting over arrays of lam, nbar and t when xp is numpy."""
    th = omega * t
    u = 1.0 - xp.cos(th)
    s = xp.sin(th)
    v = (2 * nbar + 1) / 2.0  # thermal quadrature variance
    e = xp.exp(-(2 * nbar + 1) * lam * lam * u)
    cl = xp.cos(omega_l * t)
    sl = xp.sin(omega_l * t)
    kappa = 0.5 * math.sqrt(2) * lam * v * e * cl
    return MomentRecord(
        mean_sx=e * cl / 2,
        mean_sy=e * sl / 2,
        mean_sz=0.0,
        mean_q=0.0,
        mean_p=0.0,
        var_sx=0.25 - (e * cl) ** 2 / 4,
        var_sy=0.25 - (e * sl) ** 2 / 4,
        var_sz=0.25,
        var_q=v + lam * lam * u * u / 2,
        var_p=v + lam * lam * s * s / 2,
        cov_qp=lam * lam * u * s / 2,
        cov_syq=kappa * s,
        cov_syp=-kappa * u,
        cov_szq=-math.sqrt(2) * lam * u / 4,
        cov_szp=-math.sqrt(2) * lam * s / 4,
    )


def separable_bound(c: WitnessCoefficients) -> float:
    return 0.5 + abs(c.a_y * c.b_z - c.a_z * c.b_y)


def witness_value(m: MomentRecord, c: WitnessCoefficients) -> float:
    """W evaluated from moments at given coefficients."""

    def block(var_s, cov_sq, cov_sp, a, b):
        return (
            var_s
            + a * a * m.var_q
            + b * b * m.var_p
            + 2 * a * b * m.cov_qp
            + 2 * a * cov_sq
            + 2 * b * cov_sp
        )

    return (
        m.var_sx
        + block(m.var_sy, m.cov_syq, m.cov_syp, c.a_y, c.b_y)
        + block(m.var_sz, m.cov_szq, m.cov_szp, c.a_z, c.b_z)
    )


def optimize_coefficients(m: MomentRecord) -> WitnessCoefficients:
    """Minimizer of W over (a_y, b_y, a_z, b_z).

    W is quadratic in the coefficients with the same 2x2 quadrature covariance
    block M = [[Var q, Cov qp], [Cov qp, Var p]] for both spin components, so
    the stationarity system splits into two linear solves M x = -r.
    """
    c = _coefficients(m)
    return WitnessCoefficients(float(c.a_y), float(c.b_y), float(c.a_z), float(c.b_z))


def _coefficients(m: MomentRecord) -> _GridCoefficients:
    """optimize_coefficients for moments whose fields broadcast over a grid.

    The 2x2 systems are stacked, one LAPACK solve per grid point and spin
    component as in the one-point case, so each point's coefficients are
    bit-identical to solving that point alone. Raises
    DegenerateMomentsError if the block is singular at any point: its
    eigenvalues (a + c)/2 -+ hypot((a - c)/2, b) are taken in closed form, and
    np.linalg.eigh of the first singular block names the null direction.
    An overflowed variance makes the small eigenvalue NaN (inf - inf), which
    does not count as singular, as eigh's NaN eigenvalues did not.
    """
    var_q, cov_qp, var_p, syq, syp, szq, szp = np.broadcast_arrays(
        m.var_q, m.cov_qp, m.var_p, m.cov_syq, m.cov_syp, m.cov_szq, m.cov_szp)
    mat = np.stack([np.stack([var_q, cov_qp], -1), np.stack([cov_qp, var_p], -1)], -2)
    with np.errstate(invalid="ignore", over="ignore"):
        mid, rad = (var_q + var_p) / 2, np.hypot((var_q - var_p) / 2, cov_qp)
        singular = mid - rad <= 1e-14 * np.maximum(1.0, mid + rad)
    if np.any(singular):
        null = np.linalg.eigh(mat[singular][0])[1][:, 0]
        raise DegenerateMomentsError(
            f"quadrature covariance is singular along direction ({null[0]:+.4f} q, {null[1]:+.4f} p)"
        )
    y = np.linalg.solve(mat, np.stack([-syq, -syp], -1)[..., None])
    z = np.linalg.solve(mat, np.stack([-szq, -szp], -1)[..., None])
    return _GridCoefficients(y[..., 0, 0], y[..., 1, 0], z[..., 0, 0], z[..., 1, 0])


def thermal_wb(lam: float, nbar: float, omega: float, omega_l: float, t: float) -> float:
    """Separable bound with the optimal coefficients, in closed form."""
    _point(omega, t, omega_l, nbar=nbar)
    return _in_range("thermal_wb is not finite", lambda: float(_thermal(lam, nbar, omega, omega_l, t, math)[0]),
                     lam=lam, nbar=nbar, omega=omega, omega_l=omega_l, t=t)


def thermal_wen(lam: float, nbar: float, omega: float, t: float) -> float:
    """Witness value on the entangled state at the optimal coefficients."""
    _point(omega, t, nbar=nbar)
    return _in_range("thermal_wen is not finite", lambda: float(_thermal(lam, nbar, omega, 0.0, t, math)[1]),
                     lam=lam, nbar=nbar, omega=omega, t=t)


def _thermal(lam, nbar, omega, omega_l, t, xp=np):
    """(W_b, W_en) of the thermal state at the optimal coefficients.

    Broadcasts over arrays of lam, nbar and t when xp is numpy.
    """
    u = 1.0 - xp.cos(omega * t)
    n1 = 2 * nbar + 1
    e = xp.exp(-n1 * lam * lam * u)
    e2 = xp.exp(-2 * n1 * lam * lam * u)
    w_b = 0.5 + e * xp.cos(omega_l * t) * lam * lam * u / (n1 + 2 * lam * lam * u)
    w_en = 0.5 + n1 / (4 * (n1 + 2 * lam * lam * u)) - (e2 / 4) * (1 + 2 * n1 * lam * lam * u)
    return w_b, w_en


def halfperiod_coefficients(lam: float, nbar: float) -> WitnessCoefficients:
    """Optimal coefficients at the half oscillator period (omega t = pi)."""
    _finite_nonnegative(nbar=nbar)
    r2 = math.sqrt(2)
    b_y, a_z = _finite_result("halfperiod_coefficients is not finite", (
        r2 * lam * math.exp(-2 * (2 * nbar + 1) * lam * lam), r2 * lam / (1 + 2 * nbar + 4 * lam * lam)),
        lam=lam, nbar=nbar)
    return WitnessCoefficients(a_y=0.0, b_y=b_y, a_z=a_z, b_z=0.0)


def pulsed_effective_lambda(g: float, omega: float, tau: float) -> float:
    """Effective conditional-displacement strength of the one-pulse echo, for
    g finite, omega finite and > 0 and a tau >= 0 or an array of them; the
    result must be finite."""
    _finite(g=g)
    _finite_positive(omega=omega)
    _finite_nonnegative(tau=np.min(tau, initial=0.0).item())  # the least tau; an inf one leaves the result inf
    return _in_range("pulsed_effective_lambda is not finite", lambda: _effective_lambda(g, omega, tau),
                     g=g, omega=omega, tau=tau)


def _effective_lambda(g, omega, tau):
    """pulsed_effective_lambda, omega g tau^2 / 4, unchecked, as the grid kernels take it."""
    return omega * g * tau * tau / 4.0


@dataclass(frozen=True)
class BathDeltas:
    """Open-system corrections, each proportional to nbar/Q (natural units)."""

    dvar_sx: float
    dq2: float
    dp2: float
    dqp: float  # change of <qp + pq>
    dsyq: float  # change of <S_y q + q S_y>
    dsyp: float  # change of <S_y p + p S_y>


def bath_deltas(lam: float, nbar_over_q: float, omega: float, t: float) -> BathDeltas:
    _point(omega, t, nbar_over_q=nbar_over_q)
    return _in_range("bath_deltas is not finite", lambda: _deltas(lam, nbar_over_q, omega, t, math),
                     lam=lam, nbar_over_q=nbar_over_q, omega=omega, t=t)


def _deltas(lam, nbar_over_q, omega, t, xp=np) -> BathDeltas:
    """bath_deltas, broadcasting over arrays of lam and t when xp is numpy."""
    th = omega * t
    k = nbar_over_q
    r2 = math.sqrt(2)
    return BathDeltas(
        dvar_sx=0.5 * lam * lam * k * (6 * th - 8 * xp.sin(th) + xp.sin(2 * th)),
        dq2=k * (2 * th - xp.sin(2 * th)),
        dp2=k * (2 * th + xp.sin(2 * th)),
        dqp=k * 4 * xp.sin(th) ** 2,
        dsyq=-8 * r2 * lam * k * xp.sin(th / 2) ** 4,
        dsyp=4 * r2 * lam * k * (th / 2 - xp.sin(th) + xp.sin(2 * th) / 4),
    )


def bath_witness(
    lam: float,
    nbar: float,
    nbar_over_q: float,
    omega: float,
    omega_l: float,
    t: float,
    initial: str = "ground",
) -> WitnessResult:
    """Witness with continuous bath contact during the evolution.

    Coefficients are frozen at their closed-system optimum: the ground-start
    protocol uses the nbar = 0 optimum, the thermal start uses the thermal
    optimum. The bath then shifts the evaluated moments but not the bound.
    A result that is not finite (an overflowing coefficient included) raises
    ParameterError naming the inputs, and a singular quadrature block
    DegenerateMomentsError, as in optimize_coefficients.
    """
    _point(omega, t, omega_l, nbar=nbar, nbar_over_q=nbar_over_q)
    w_b, w_en = _in_range("bath_witness is not finite", lambda: _bath(
        lam, nbar, nbar_over_q, omega, omega_l, t, initial, math), lam=lam, nbar=nbar, nbar_over_q=nbar_over_q,
        omega=omega, omega_l=omega_l, t=t)
    return make_result(float(w_b), float(w_en))


def _check_initial(initial) -> None:
    if initial not in ("ground", "thermal"):
        raise ValueError(f"initial must be 'ground' or 'thermal', got {initial!r}")


def _bath(lam, nbar, nbar_over_q, omega, omega_l, t, initial, xp=np):
    """(W_b, W_en) of bath_witness, broadcasting over arrays of lam, nbar and t
    when xp is numpy."""
    _check_initial(initial)
    nbar_state = 0.0 if initial == "ground" else nbar
    m = _moments(lam, nbar_state, omega, omega_l, t, xp)
    c = _coefficients(m)
    d = _deltas(lam, nbar_over_q, omega, t, xp)
    w_en = witness_value(m, c) + (
        d.dvar_sx
        + (c.a_y ** 2 + c.a_z ** 2) * d.dq2
        + (c.b_y ** 2 + c.b_z ** 2) * d.dp2
        + (c.a_y * c.b_y + c.a_z * c.b_z) * d.dqp
        + c.a_y * d.dsyq
        + c.b_y * d.dsyp
    )
    return separable_bound(c), w_en


@dataclass(frozen=True)
class ScanPoint:
    sweep_value: float
    w_b: float
    w_en: float
    w_ratio: float
    log10_w_ratio: float


_SCAN_FIELDS = ("sweep_value", "w_b", "w_en", "w_ratio", "log10_w_ratio")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A violation scan: one read-only float64 array per ScanPoint field, and
    the landmarks as Python floats (None where the scan has none)."""

    sweep_name: str
    sweep_value: np.ndarray
    w_b: np.ndarray
    w_en: np.ndarray
    w_ratio: np.ndarray
    log10_w_ratio: np.ndarray
    tau_asymp: Optional[float]  # first grid point with w_ratio <= 0 after a positive one
    tau_star: Optional[float]  # interpolated crossing of w_ratio = 1e-3
    max_nbar: Optional[float]  # tau_star alias for nbar sweeps

    @property
    def points(self) -> tuple:
        """The scan as a tuple of ScanPoint records of Python floats."""
        return tuple(map(ScanPoint, *(getattr(self, f).tolist() for f in _SCAN_FIELDS)))


RATIO_THRESHOLD = 1e-3


def violation_scan(
    mode: str,
    sweep: str,
    grid: Sequence[float],
    *,
    lam: float = 0.0,
    g: float = 0.0,
    omega: float = 1.0,
    omega_l: float = 0.0,
    tau: float = 0.0,
    nbar: float = 0.0,
    nbar_over_q: float = 0.0,
    initial: str = "ground",
) -> ScanResult:
    """Sweep t or nbar and locate where the witness violation dies.

    mode 'pulseless' uses lam directly and sweeps the evolution time t or
    nbar. mode 'pulsed' evaluates the half-period formulas at the effective
    lam of the echo sequence: sweeping t means sweeping the sequence length
    tau (so the effective lam grows as omega g tau^2 / 4 along the grid),
    while sweeping nbar uses the fixed tau argument.

    The whole grid is one call of the numpy kernel, so each point agrees
    with the one-point functions (thermal_wb, thermal_wen, bath_witness)
    to within 1e-13 relative rather than bit for bit. The result holds one
    float64 array per ScanPoint field (`points` builds the records on
    demand); log10_w_ratio is math.log10 of each positive ratio and -inf
    elsewhere. The landmarks are found by index searches on w_ratio and
    interpolated in Python floats between the two bracketing points.

    lam, g and omega_l are finite, omega finite and > 0, and nbar (or the
    nbar grid), the t grid, tau and nbar_over_q finite and >= 0. Inputs so
    large that the kernels overflow at some grid point raise ParameterError
    naming how many points are not finite, the first of them and the inputs.
    With a bath, a singular quadrature block at any grid point raises
    DegenerateMomentsError.
    """
    if mode not in ("pulseless", "pulsed"):
        raise ValueError("mode must be 'pulseless' or 'pulsed'")
    if sweep not in ("t", "nbar"):
        raise ValueError("sweep must be 't' or 'nbar'")
    _check_initial(initial)
    x = np.array(grid, dtype=float)
    if x.ndim != 1 or not x.size or not np.isfinite(x).all() or np.any(x[1:] <= x[:-1]):
        raise ValueError("grid must be nonempty, finite and sorted increasing")
    _finite(lam=lam, g=g, omega_l=omega_l)
    _finite_positive(omega=omega)
    # the grid is sorted, so its first point is its least
    _finite_nonnegative(**{"nbar": nbar, sweep: x[0].item()}, tau=tau, nbar_over_q=nbar_over_q)

    if mode == "pulsed":
        lam_eff = _effective_lambda(g, omega, x if sweep == "t" else tau)
        t = math.pi / omega
    else:
        lam_eff = lam
        t = x if sweep == "t" else t_fixed_pulseless(omega)
    nb = nbar if sweep == "t" else x
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        if nbar_over_q > 0:
            w_b, w_en = _bath(lam_eff, nb, nbar_over_q, omega, omega_l, t, initial)
        else:
            w_b, w_en = _thermal(lam_eff, nb, omega, omega_l, t)
        # a ground-start nbar sweep is one point
        w_b, w_en = (np.broadcast_to(np.asarray(w, dtype=float), x.shape).copy() for w in (w_b, w_en))
        ratio = (w_b - w_en) / w_b
    bad = ~(np.isfinite(w_b) & np.isfinite(w_en) & np.isfinite(ratio))
    if bad.any():
        raise _not_finite(f"violation_scan is not finite on {np.count_nonzero(bad)} of {bad.size} grid points "
                          f"(first {sweep} = {x[bad][0].item()!r})", lam=lam, g=g, omega=omega, omega_l=omega_l,
                          tau=tau, nbar=nbar, nbar_over_q=nbar_over_q)
    positive = ratio > 0
    log10_ratio = np.full(x.shape, -math.inf)
    # math.log10, not np.log10: numpy rounds the last bit differently for some ratios
    log10_ratio[positive] = list(map(math.log10, ratio[positive].tolist()))
    for a in (x, w_b, w_en, ratio, log10_ratio):
        a.flags.writeable = False

    star = _first_crossing(x, ratio, RATIO_THRESHOLD)
    return ScanResult(
        sweep_name=sweep,
        sweep_value=x,
        w_b=w_b,
        w_en=w_en,
        w_ratio=ratio,
        log10_w_ratio=log10_ratio,
        tau_asymp=_asymptote(x, positive),
        tau_star=star if sweep == "t" else None,
        max_nbar=star if sweep == "nbar" else None,
    )


def t_fixed_pulseless(omega: float) -> float:
    """Half oscillator period, the default witness readout time for nbar sweeps."""
    _finite_positive(omega=omega)
    return _finite_result("t_fixed_pulseless is not finite", math.pi / omega, omega=omega)


def max_nbar_for_violation(
    g: float,
    omega: float,
    threshold: float = RATIO_THRESHOLD,
    n_grid: int = 2000,
) -> float:
    """Largest nbar for which a pulsed-scheme tau exists with violation
    ratio >= threshold; found by bisection on nbar over a log tau grid,
    each step one numpy kernel call over the whole grid. ValueError where
    no nbar reaches threshold (it exceeds the peak ratio at nbar = 0)."""
    _finite_positive(g=g, omega=omega)
    _finite(threshold=threshold)
    taus = _in_range("the tau grid is not finite", lambda: np.sqrt(
        4 * np.geomspace(1e-3, 4.0, n_grid) / (omega * g)), g=g, omega=omega)
    lam_eff = _effective_lambda(g, omega, taus)

    def peak_ratio(nb: float) -> float:
        w_b, w_en = _thermal(lam_eff, nb, omega, 0.0, math.pi / omega)
        return float(np.max((w_b - w_en) / w_b))

    peak = peak_ratio(0.0)
    if not peak >= threshold:
        raise ValueError(f"no nbar reaches threshold = {threshold!r}: the peak ratio at nbar = 0 is "
                         f"{peak!r} at g = {g!r}, omega = {omega!r}")
    lo, hi = 0.0, 1.0
    while peak_ratio(hi) >= threshold:
        lo, hi = hi, hi * 2
        if hi > 1e6:
            raise ValueError(f"violation persists to unphysically large nbar at g = {g!r}, "
                             f"omega = {omega!r}, threshold = {threshold!r}")
    return float(_bisect(lambda nb: peak_ratio(nb) >= threshold, lo, hi))


def _bisect(inside, lo, hi, steps: int = 60):
    """Midpoint of [lo, hi] after `steps` halvings that keep inside(lo) true
    and inside(hi) false; elementwise over arrays."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        ok = inside(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return (lo + hi) / 2


def _asymptote(x, positive) -> Optional[float]:
    """Sign change on the grid: the first point with w_ratio <= 0 after a
    positive one; an identically nonpositive scan has none."""
    first = int(np.argmax(positive))
    if not positive[first]:
        return None
    after = np.flatnonzero(~positive[first:])
    return float(x[first + after[0]]) if after.size else None


def _first_crossing(x, ratio, level) -> Optional[float]:
    """First downward crossing of w_ratio through level, linearly interpolated."""
    hits = np.flatnonzero((ratio[:-1] > level) & (ratio[1:] <= level))
    if not hits.size:
        return None
    i = int(hits[0])
    x0, x1 = x[i].item(), x[i + 1].item()
    r0, r1 = ratio[i].item(), ratio[i + 1].item()
    frac = (r0 - level) / (r0 - r1)
    return x0 + frac * (x1 - x0)

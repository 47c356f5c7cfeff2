r"""Brute-force verification engines.

Three independent checks back the closed forms elsewhere in the package:

* truncated-Fock time evolution of the full spin-oscillator Hamiltonian
  (exact per-segment eigenpropagation when the force vanishes, Strang
  splitting otherwise);
* Monte Carlo sampling of thermal ensembles (Glauber-P) and of Brownian
  white-noise forces, with counter-based per-trajectory seeding so results
  are bit-identical for a fixed seed regardless of scheduling;
* Gaussian covariance propagation of the one-axis-twisted collective spin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import dynamics, pulses, witness
from .dynamics import EntangledState
from .pulses import PulseSequence
from .units import NaturalParams


class CutoffError(RuntimeError):
    """Fock truncation too small for the requested evolution."""


class ResolutionError(RuntimeError):
    """Time step too coarse for the requested evolution or noise fidelity."""


@dataclass(frozen=True)
class OracleConfig:
    n_max: int = 64
    dt: float = 0.0  # 0 -> auto: min(2 pi/omega, shortest segment)/64
    seed: int = 0
    n_trajectories: int = 1000
    tail_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_max < 4:
            raise ValueError("n_max must be >= 4")
        if not 0 < self.tail_tolerance <= 1e-6:
            raise ValueError("tail_tolerance must be in (0, 1e-6]")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")

    def step(self, omega: float, seq: PulseSequence) -> float:
        shortest = min(b - a for a, b, _ in pulses.segments(seq))
        limit = min(2 * math.pi / omega, shortest) / 64.0
        if self.dt <= 0:
            return limit
        if self.dt > limit * (1 + 1e-12):
            raise ResolutionError(f"dt = {self.dt:.3g} exceeds stability bound {limit:.3g}")
        return self.dt


@dataclass
class JointState:
    """Coefficients over (spin in {0, 1}) x (Fock n in [0, n_max])."""

    coeff: np.ndarray  # complex, shape (2, n_max + 1)

    @property
    def n_max(self) -> int:
        return self.coeff.shape[1] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def check(self, tail_tolerance: float) -> None:
        # check the tail first: truncation loss also shows up as norm drift,
        # and the actionable advice then is a larger n_max, not a smaller dt
        tail = float(np.sum(np.abs(self.coeff[:, -4:]) ** 2))
        if tail >= tail_tolerance:
            raise CutoffError(
                f"top-4 Fock population {tail:.3e} >= {tail_tolerance:.1e}; increase n_max"
            )
        n = self.norm()
        if abs(n - 1.0) > 1e-10:
            raise ResolutionError(f"norm drifted to {n!r}")


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Fock coefficients of |alpha> via the stable recurrence."""
    v = np.zeros(n_max + 1, dtype=complex)
    v[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(n_max):
        v[n + 1] = v[n] * alpha / math.sqrt(n + 1)
    return v


def suggested_n_max(max_alpha_sq: float) -> int:
    """Cutoff keeping the coherent-state tail far below 1e-8."""
    return int(math.ceil(max_alpha_sq + 10 * math.sqrt(max_alpha_sq + 1) + 20))


def initial_state(alpha: complex, n_max: int, spin: str = "plus_x") -> JointState:
    osc = coherent_vector(alpha, n_max)
    c = np.zeros((2, n_max + 1), dtype=complex)
    if spin == "plus_x":
        c[0] = osc / math.sqrt(2)
        c[1] = osc / math.sqrt(2)
    elif spin == "up":
        c[0] = osc
    elif spin == "down":
        c[1] = osc
    else:
        raise ValueError("spin must be plus_x, up, or down")
    return JointState(c)


@lru_cache(maxsize=64)
def _x_eigensystem(n_max: int):
    """Eigendecomposition of x = a + a^dag (tridiagonal, zero diagonal)."""
    off = np.sqrt(np.arange(1, n_max + 1))
    evals, evecs = eigh_tridiagonal(np.zeros(n_max + 1), off)
    return evals, evecs


@lru_cache(maxsize=256)
def _sector_eigensystem(n_max: int, c_over_omega: float):
    """Eigendecomposition of n_hat + (c/omega) x (shared omega factored out)."""
    diag = np.arange(n_max + 1, dtype=float)
    off = c_over_omega * np.sqrt(np.arange(1, n_max + 1))
    evals, evecs = eigh_tridiagonal(diag, off)
    return evals, evecs


def _sector_propagate(vec: np.ndarray, c: float, omega: float, dt: float) -> np.ndarray:
    """Exact e^{-i (omega n + c x) dt} on one spin sector."""
    evals, evecs = _sector_eigensystem(len(vec) - 1, c / omega)
    return evecs @ (np.exp(-1j * omega * evals * dt) * (evecs.T @ vec))


def evolve(
    state: JointState,
    natural: NaturalParams,
    seq: PulseSequence,
    force=None,
    cfg: OracleConfig = OracleConfig(),
) -> JointState:
    """Truncated-Fock evolution under H = g sigma_z x + omega n - f(t) x.

    Pulses are handled in the toggling frame: the instantaneous pi flips are
    absorbed into the sign profile of the coupling, which keeps the spin-
    sector labels aligned with the closed-form branch states they are
    compared against. The physical lab state differs only by the known final
    pulse rotations, which drop out of every fidelity and moment comparison
    made here.
    """
    g, omega = natural.g, natural.omega
    n_max = state.n_max
    c = state.coeff.copy()
    dt = cfg.step(omega, seq)
    times, values = (None, None) if force is None else force
    if force is not None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
    evals_x, evecs_x = _x_eigensystem(n_max)
    nvec = np.arange(n_max + 1, dtype=float)
    out = JointState(c)
    for a, b, s in pulses.segments(seq):
        if force is None:
            # constant Hamiltonian across the whole segment: exact one shot
            c[0] = _sector_propagate(c[0], s * g, omega, b - a)
            c[1] = _sector_propagate(c[1], -s * g, omega, b - a)
        else:
            n_steps = max(1, int(math.ceil((b - a) / dt)))
            h = (b - a) / n_steps
            half_free = np.exp(-1j * omega * nvec * h / 2)
            for k in range(n_steps):
                tm = a + (k + 0.5) * h
                idx = min(int(np.searchsorted(times, tm, side="right")) - 1, len(values) - 1)
                f = float(values[max(idx, 0)])
                for spin, sgn in ((0, +1), (1, -1)):
                    v = half_free * c[spin]
                    v = evecs_x @ (np.exp(-1j * (sgn * s * g - f) * evals_x * h) * (evecs_x.T @ v))
                    c[spin] = half_free * v
        out.check(cfg.tail_tolerance)
    return out


def closed_form_vector(state: EntangledState, n_max: int) -> np.ndarray:
    """Fock representation of an EntangledState."""
    c = np.zeros((2, n_max + 1), dtype=complex)
    c[0] = state.branch0.amplitude * coherent_vector(state.branch0.alpha, n_max)
    c[1] = state.branch1.amplitude * coherent_vector(state.branch1.alpha, n_max)
    return c


def branch_fidelity(closed: EntangledState, oracle: JointState) -> float:
    """|<closed|oracle>|^2 over the joint spin-oscillator space."""
    ref = closed_form_vector(closed, oracle.n_max)
    return float(abs(np.vdot(ref, oracle.coeff)) ** 2)


# ---------------------------------------------------------------------------
# Witness moments


def _osc_ops(n_max: int):
    n = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    q = (a + a.T) / math.sqrt(2)
    p = (a - a.T) / (1j * math.sqrt(2))
    return q, p


def moments_from_state(state: JointState) -> witness.MomentRecord:
    """Exact witness moments of a joint pure state."""
    c0, c1 = state.coeff
    q, p = _osc_ops(state.n_max)
    # sigma_x expectation = 2 Re <c1|c0>; S_x = sigma_x / 2
    sx = 2 * float(np.real(np.vdot(c1, c0)))
    sy = -2 * float(np.imag(np.vdot(c1, c0)))
    sz = float(np.vdot(c0, c0).real - np.vdot(c1, c1).real)
    mq = float(np.real(np.vdot(c0, q @ c0) + np.vdot(c1, q @ c1)))
    mp = float(np.real(np.vdot(c0, p @ c0) + np.vdot(c1, p @ c1)))
    mq2 = float(np.real(np.vdot(c0, q @ q @ c0) + np.vdot(c1, q @ q @ c1)))
    mp2 = float(np.real(np.vdot(c0, p @ p @ c0) + np.vdot(c1, p @ p @ c1)))
    qp = q @ p + p @ q
    mqp = float(np.real(np.vdot(c0, qp @ c0) + np.vdot(c1, qp @ c1)))
    # sigma_y r cross moments: <sigma_y r> = -2 Im <c1| r |c0>
    syq = -2 * float(np.imag(np.vdot(c1, q @ c0)))
    syp = -2 * float(np.imag(np.vdot(c1, p @ c0)))
    szq = float(np.real(np.vdot(c0, q @ c0) - np.vdot(c1, q @ c1)))
    szp = float(np.real(np.vdot(c0, p @ c0) - np.vdot(c1, p @ c1)))
    return _record_from_raw((sx, sy, mq, mp, mq2, mp2, mqp, syq, syp, szq, szp), sz)


def _branch_raw_moments(alpha: complex, g: float, omega: float, t: float):
    """Raw per-alpha moments of the pulseless entangled state, closed form.

    Returns the 11-vector (sx, sy, q, p, q2, p2, qp_sym, syq, syp, szq, szp)
    of raw (uncentered) expectation values of sigma-level operators.
    """
    st = dynamics.pulseless_state(alpha, g, omega, t)
    g0, g1 = st.branch0.alpha, st.branch1.alpha
    phase = cmath.exp(1j * st.relative_phase)
    ov = cmath.exp(-abs(g0) ** 2 / 2 - abs(g1) ** 2 / 2 + np.conj(g1) * g0)
    z = phase * ov  # e^{i(theta0-theta1)} <g1|g0>
    r2 = math.sqrt(2)

    def qm(gam):  # (q, p, q2, p2, qp_sym) of a coherent state
        x, y = r2 * gam.real, r2 * gam.imag
        return x, y, x * x + 0.5, y * y + 0.5, 2 * x * y

    q0, p0, q20, p20, qp0 = qm(g0)
    q1, p1, q21, p21, qp1 = qm(g1)
    # cross matrix elements: <g1| a |g0> = g0 ov etc.
    qc = (g0 + np.conj(g1)) / r2
    pc = (g0 - np.conj(g1)) / (1j * r2)
    return np.array(
        [
            z.real,  # <sigma_x>
            -z.imag,  # <sigma_y>
            (q0 + q1) / 2,
            (p0 + p1) / 2,
            (q20 + q21) / 2,
            (p20 + p21) / 2,
            (qp0 + qp1) / 2,
            -(z * qc).imag,  # <sigma_y q>
            -(z * pc).imag,  # <sigma_y p>
            (q0 - q1) / 2,  # <sigma_z q>
            (p0 - p1) / 2,  # <sigma_z p>
        ]
    )


@dataclass(frozen=True)
class MomentEstimate:
    record: witness.MomentRecord
    w_en: float
    w_en_se: float  # Monte Carlo standard error (0 for pure states)


def witness_moments(
    natural: NaturalParams,
    t: float,
    cfg: OracleConfig = OracleConfig(),
    *,
    nbar: Optional[float] = None,
    coefficients: Optional[witness.WitnessCoefficients] = None,
) -> MomentEstimate:
    """Witness moments of the pulseless evolution at time t.

    nbar None or 0 uses exact truncated-Fock evolution of the vacuum start;
    nbar > 0 draws Glauber-P coherent samples (alpha ~ CN(0, nbar)) and
    averages the exact per-sample branch moments, with batched standard
    errors for the assembled witness value.
    """
    g, omega = natural.g, natural.omega
    lam = natural.lam
    if coefficients is None:
        coefficients = witness.halfperiod_coefficients(lam, 0.0 if not nbar else nbar)
    if not nbar:
        seq = pulses.ramsey(t)
        amax = (abs(2 * g / omega) + 1) ** 2
        n_max = max(cfg.n_max, suggested_n_max(amax))
        st = evolve(initial_state(0j, n_max), natural, seq, None, replace(cfg, n_max=n_max))
        rec = moments_from_state(st)
        return MomentEstimate(rec, witness.witness_value(rec, coefficients), 0.0)

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n = cfg.n_trajectories
    draws = rng.normal(size=(n, 2)) * math.sqrt(nbar / 2.0)
    alphas = draws[:, 0] + 1j * draws[:, 1]
    raw = np.empty((n, 11))
    for i, al in enumerate(alphas):
        raw[i] = _branch_raw_moments(complex(al), g, omega, t)

    n_batches = 20 if n >= 200 else 2
    batches = np.array_split(np.arange(n), n_batches)
    w_vals = []
    for idx in batches:
        w_vals.append(_assemble_wen(raw[idx].mean(axis=0), coefficients))
    w_en = _assemble_wen(raw.mean(axis=0), coefficients)
    w_se = float(np.std(w_vals, ddof=1) / math.sqrt(len(w_vals)))
    rec = _record_from_raw(raw.mean(axis=0))
    return MomentEstimate(rec, w_en, w_se)


def _record_from_raw(m, sz: float = 0.0) -> witness.MomentRecord:
    """Centred moments from the raw 11-vector of _branch_raw_moments and <sigma_z>."""
    sx, sy, q, p, q2, p2, qps, syq, syp, szq, szp = m
    return witness.MomentRecord(
        mean_sx=sx / 2,
        mean_sy=sy / 2,
        mean_sz=sz / 2,
        mean_q=q,
        mean_p=p,
        var_sx=0.25 - sx * sx / 4,
        var_sy=0.25 - sy * sy / 4,
        var_sz=0.25 - sz * sz / 4,
        var_q=q2 - q * q,
        var_p=p2 - p * p,
        cov_qp=qps / 2 - q * p,
        cov_syq=syq / 2 - (sy / 2) * q,
        cov_syp=syp / 2 - (sy / 2) * p,
        cov_szq=szq / 2 - (sz / 2) * q,
        cov_szp=szp / 2 - (sz / 2) * p,
    )


def _assemble_wen(raw_mean, c: witness.WitnessCoefficients) -> float:
    return witness.witness_value(_record_from_raw(raw_mean), c)


# ---------------------------------------------------------------------------
# Brownian-force Monte Carlo


@dataclass(frozen=True)
class BathStatistics:
    """Empirical bath-induced moment shifts with standard errors."""

    dvar_sx: float
    dq2: float
    dp2: float
    dqp: float
    dsyq: float
    dsyp: float
    se_dvar_sx: float
    se_dq2: float
    se_dp2: float
    se_dqp: float
    se_dsyq: float
    se_dsyp: float

    def as_pairs(self):
        return (
            ("dvar_sx", self.dvar_sx, self.se_dvar_sx),
            ("dq2", self.dq2, self.se_dq2),
            ("dp2", self.dp2, self.se_dp2),
            ("dqp", self.dqp, self.se_dqp),
            ("dsyq", self.dsyq, self.se_dsyq),
            ("dsyp", self.dsyp, self.se_dsyp),
        )


def thermal_trajectories(
    natural: NaturalParams,
    seq: PulseSequence,
    cfg: OracleConfig,
    nbar_over_q: float,
) -> BathStatistics:
    """Monte Carlo of Brownian white-noise forces through exact branch dynamics.

    Each trajectory samples a piecewise-constant force with per-step variance
    2 omega (nbar/Q) / dt and evolves both spin branches exactly. The
    estimators are the force-linear functionals whose statistics give the
    bath-induced moment shifts: the relative branch phase Phi and the common
    displacement (Q, P); then d<q^2> = E[Q^2], d<p^2> = E[P^2],
    d<qp+pq> = 2 E[QP], dVar(S_x) = E[Phi^2]/4, and the sigma_y cross shifts
    are E[Phi Q], E[Phi P] (Phi here is the branch phase theta_+ - theta_-
    plus the overlap phase, the negative of the kernel-integral phase).
    """
    if cfg.n_trajectories < 100:
        raise ValueError("n_trajectories must be >= 100")
    g, omega = natural.g, natural.omega
    tau = seq.total_time
    n_steps = 4096
    dt = tau / n_steps
    if omega * nbar_over_q * dt > 0.1:
        raise ResolutionError("dt too coarse for white-noise fidelity")
    var_f = 2 * omega * nbar_over_q / dt
    sd_f = math.sqrt(var_f)

    # precompute per-step segment data
    edges = np.linspace(0.0, tau, n_steps + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    signs = np.array([pulses.sign_profile(seq, t) for t in mids])
    phase_step = np.exp(-1j * omega * dt)

    n = cfg.n_trajectories
    samples = np.empty((n, 3))  # Phi, Q, P per trajectory
    chunk = 256
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        m = stop - start
        rngs = [np.random.Generator(np.random.Philox(key=cfg.seed, counter=(i << 64)))
                for i in range(start, stop)]
        f = np.stack([r.normal(0.0, sd_f, size=n_steps) for r in rngs])
        th_p = np.zeros(m)
        th_m = np.zeros(m)
        gam_p = np.zeros(m, dtype=complex)
        gam_m = np.zeros(m, dtype=complex)
        gam_0 = np.zeros(m, dtype=complex)  # force-free + branch for reference
        for k in range(n_steps):
            s = signs[k]
            for which in ("p", "m", "0"):
                if which == "p":
                    cvec = s * g + f[:, k]
                elif which == "m":
                    cvec = -s * g + f[:, k]
                else:
                    cvec = np.full(m, s * g)
                beta = cvec / omega
                if which == "p":
                    gam = gam_p
                elif which == "m":
                    gam = gam_m
                else:
                    gam = gam_0
                phase1 = (beta * np.conj(gam)).imag
                g2 = (gam + beta) * phase_step
                phase2 = (-beta * np.conj(g2)).imag
                dth = cvec * cvec * dt / omega + phase1 + phase2
                gam_new = g2 - beta
                if which == "p":
                    th_p += dth
                    gam_p = gam_new
                elif which == "m":
                    th_m += dth
                    gam_m = gam_new
                else:
                    gam_0 = gam_new
        phi = (th_p - th_m) + (np.conj(gam_m) * gam_p).imag
        # subtract the deterministic (f = 0) relative phase
        t0p, g0p = 0.0, 0j
        t0m, g0m = 0.0, 0j
        for a, b, sseg in pulses.segments(seq):
            t0p, g0p = dynamics.segment_step(t0p, g0p, sseg * g, omega, b - a)
            t0m, g0m = dynamics.segment_step(t0m, g0m, -sseg * g, omega, b - a)
        phi0 = (t0p - t0m) + (np.conj(g0m) * g0p).imag
        dgam = gam_p - np.asarray(gam_0)  # common force-driven displacement
        qq = math.sqrt(2) * dgam.real
        pp = math.sqrt(2) * dgam.imag
        samples[start:stop, 0] = phi - phi0
        samples[start:stop, 1] = qq
        samples[start:stop, 2] = pp

    phi = samples[:, 0]
    qq = samples[:, 1]
    pp = samples[:, 2]
    per_traj = np.column_stack([
        phi * phi / 4,
        qq * qq,
        pp * pp,
        2 * qq * pp,
        phi * qq,
        phi * pp,
    ])
    mean = per_traj.mean(axis=0)
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(n)
    return BathStatistics(*mean, *se)


# ---------------------------------------------------------------------------
# Gaussian squeezing oracle


def gaussian_noise_factor(n_spins: float, zeta: float, theta: float) -> float:
    """Shot-noise factor from Gaussian covariance propagation.

    Bosonized collective spin: normalized quadratures (z, y) with unit
    variance; the J_z^2 unitary shears y -> y + (kappa/4) z with
    kappa = N_s zeta; the readout rotates by theta about x and measures the
    rotated y. Returns sqrt of the measured variance (unsqueezed -> 1).
    """
    k = n_spins * zeta / 4.0
    cov = np.array([[1.0, k], [k, 1.0 + k * k]])  # (z, y') covariance
    direction = np.array([math.sin(theta), math.cos(theta)])
    return math.sqrt(float(direction @ cov @ direction))

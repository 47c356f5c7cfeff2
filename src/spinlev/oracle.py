r"""Brute-force verification engines.

Three independent checks back the closed forms elsewhere in the package:

* truncated-Fock time evolution of the full spin-oscillator Hamiltonian,
  exact on every piece where the pulse sign and the force are constant;
* Monte Carlo sampling of thermal ensembles (Glauber-P) and of Brownian
  white-noise forces, with counter-based per-trajectory seeding so results
  are bit-identical for a fixed seed regardless of scheduling: trajectory i
  reads the Philox stream at counter i << 64 of the seed's key, reached by
  re-seeking one generator per call, not by building one per trajectory;
  the bath estimators are linear in the force path, so a batch of sequences
  and bath strengths shares one draw of each path
  (thermal_trajectories_batch), and their exact expectations need no
  sampling at all (bath_covariance);
* Gaussian covariance propagation of the one-axis-twisted collective spin.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import logging
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import cache, lru_cache
from typing import Optional, Sequence

import numpy as np

from . import dynamics, pulses, witness
from .dynamics import EntangledState
from .pulses import PulseSequence
from .units import NaturalParams, _finite, _finite_nonnegative, _in_range

_log = logging.getLogger(__name__)


class CutoffError(RuntimeError):
    """Fock truncation too small for the requested evolution."""


class ResolutionError(RuntimeError):
    """Norm drift in the Fock evolution, a coherent state below double precision,
    or a force grid too coarse for the noise fidelity."""


_N_MAX_FLOOR = 64  # the smallest cutoff witness_moments evolves in
_TAIL_TOLERANCE = 1e-8  # the top-4 Fock population JointState.check allows


@dataclass(frozen=True)
class OracleConfig:
    """The Monte Carlo routes' Philox seed and sample count."""

    seed: int = 0
    n_trajectories: int = 1000

    def __post_init__(self) -> None:
        # a Philox key; numpy would truncate a float seed without a word
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**128):
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if not (isinstance(self.n_trajectories, numbers.Integral) and self.n_trajectories >= 1):
            raise ValueError(f"n_trajectories must be an integer >= 1, got {self.n_trajectories!r}")


@dataclass
class JointState:
    """Coefficients over (spin in {0, 1}) x (Fock n in [0, n_max])."""

    coeff: np.ndarray  # complex, shape (2, n_max + 1)

    @property
    def n_max(self) -> int:
        return self.coeff.shape[1] - 1

    def norm(self) -> float:
        flat = self.coeff.ravel("K")  # memory order: no copy of a transposed view
        return math.sqrt(np.vdot(flat, flat).real)

    def margins(self) -> tuple[float, float]:
        """(top-4 Fock population, |norm - 1|): how far the state is from the
        truncation and norm limits that check() enforces."""
        top = self.coeff[:, -4:].ravel("K")
        return float(np.vdot(top, top).real), abs(self.norm() - 1.0)

    def check(self) -> None:
        # check the tail first: truncation loss also shows up as norm drift,
        # and the actionable advice then is a larger n_max
        tail, drift = self.margins()
        if tail >= _TAIL_TOLERANCE:
            raise CutoffError(
                f"top-4 Fock population {tail:.3e} >= {_TAIL_TOLERANCE:.1e}; increase n_max"
            )
        if not drift <= 1e-10:  # NaN included
            raise ResolutionError(f"norm drifted by {drift!r} from 1")


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Fock coefficients of |alpha>, c_n = e^{-|alpha|^2/2} prod_{k<=n} alpha/sqrt(k).

    Raises ValueError for a non-finite alpha and ResolutionError when the
    vacuum amplitude e^{-|alpha|^2/2} leaves the normal float range
    (|alpha|^2 above about 1416), where the state would come out with lost
    precision or as all zeros.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    vacuum = math.exp(-abs(alpha) ** 2 / 2)
    if vacuum < sys.float_info.min:
        raise ResolutionError(
            f"e^(-|alpha|^2/2) underflows at |alpha|^2 = {abs(alpha) ** 2!r}; "
            "the coherent state is not representable")
    v = np.empty(n_max + 1, dtype=complex)
    v[0] = vacuum
    v[1:] = alpha / np.sqrt(np.arange(1, n_max + 1))
    return np.cumprod(v)


def suggested_n_max(max_alpha_sq: float) -> int:
    """Cutoff keeping the coherent-state tail far below 1e-8, for |alpha|^2 finite and >= 0."""
    _finite_nonnegative(max_alpha_sq=max_alpha_sq)
    return int(math.ceil(max_alpha_sq + 10 * math.sqrt(max_alpha_sq + 1) + 20))


def initial_state(alpha: complex, n_max: int) -> JointState:
    """(|0> + |1>)/sqrt2 x |alpha>, the start every sequence is evolved from."""
    osc = coherent_vector(alpha, n_max)
    c = np.zeros((2, n_max + 1), dtype=complex)
    c[0] = osc / math.sqrt(2)
    c[1] = osc / math.sqrt(2)
    return JointState(c)


_FLAPACK = "scipy.linalg._flapack"


def _flapack_path() -> Optional[str]:
    """The file of scipy's LAPACK extension module, found without importing
    scipy; None when scipy or the file is missing."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@cache
def _dstevd():
    """scipy.linalg.lapack.dstevd, without the scipy.linalg package import
    (about 0.3 s of a cold start on a 2-vCPU machine).

    It is an attribute of the extension module scipy.linalg._flapack, reused
    when already imported and otherwise loaded from its file on its own: the
    same binary, so every result is the same bit for bit. The public import
    is the fallback when the file is missing or does not load on its own.
    One DEBUG record on the "spinlev.oracle" logger names the way taken
    (record attribute dstevd_route: "sys.modules", "file" or "public").
    """
    module, route, source = sys.modules.get(_FLAPACK), "sys.modules", _FLAPACK
    if module is None and (path := _flapack_path()) is not None:
        loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
        try:
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
            loader.exec_module(module)
        except ImportError:  # e.g. a library only the package import puts on the search path
            module = None
        else:
            route, source = "file", path
            # CPython files a single-phase extension in sys.modules; a later
            # import of scipy.linalg binds it to the package only if it loads
            # it itself (from the same binary)
            if sys.modules.get(_FLAPACK) is module:
                del sys.modules[_FLAPACK]
    if module is None:
        from scipy.linalg.lapack import dstevd

        route, source = "public", "scipy.linalg.lapack"
    else:
        dstevd = module.dstevd
    _log.debug("dstevd by %s from %s", route, source, extra={"dstevd_route": route})
    return dstevd


@lru_cache(maxsize=128)
def _sector_eigensystem(n_max: int, kappa: float):
    """Eigendecomposition of n_hat + kappa x for kappa >= 0 (kappa = c/omega).

    The parity P = (-1)^n_hat anticommutes with x, so n_hat - kappa x =
    P (n_hat + kappa x) P exactly in the truncated basis: the same
    eigenvalues, and eigenvectors with their odd entries negated. One entry
    therefore serves both signs of the coupling.

    One call of LAPACK's divide-and-conquer dstevd, the driver
    scipy.linalg.eigh_tridiagonal picks for a full spectrum, with the same
    result bit for bit; the arrays are built here, so only the coupling is
    checked. Raises ValueError when kappa sqrt(n_max) is not finite, as
    dstevd returns NaN for it without an error, and LinAlgError when dstevd
    fails.
    """
    # dstevd takes at least one off-diagonal entry, unread for a 1 x 1 matrix
    top = max(n_max, 1)
    if not math.isfinite(kappa * math.sqrt(top)):  # the off-diagonal entry of largest magnitude
        raise ValueError(f"coupling kappa = {kappa!r} gives a non-finite tridiagonal at n_max = {n_max}")
    diag = np.arange(n_max + 1, dtype=float)
    off = kappa * np.sqrt(np.arange(1, top + 1))
    evals, evecs, info = _dstevd()(diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed for kappa = {kappa!r}, n_max = {n_max}: info = {info}")
    return evals, evecs


_MINUS_ONE = np.complex128(-1)  # v *= -1 converts the int on every call


def _rotate(re: np.ndarray, flips, evecs: np.ndarray, phase: np.ndarray) -> None:
    """e^{-i omega dt (n_hat + kappa_j x)} on the m spin-sector columns of a
    state block, in place, for couplings kappa_j of one |kappa|.

    re is the (n_max + 1, 2m) float view of the block, evecs the
    eigenvectors of that |kappa| and phase e^{-i omega E dt} over its
    eigenvalues E, as an (n_max + 1, m) array. The eigenvectors are real, so
    both products run in real arithmetic. A column with kappa < 0 is
    propagated as P e^{-i omega dt (n_hat + |kappa| x)} P: flips holds the
    odd-row views P negates, one per such column.
    """
    for v in flips:
        np.multiply(v, _MINUS_ONE, out=v)
    y = evecs.T @ re
    yc = y.view(complex)
    yc *= phase
    np.matmul(evecs, y, out=re)
    for v in flips:
        np.multiply(v, _MINUS_ONE, out=v)


def evolve(state: JointState, natural: NaturalParams, seq: PulseSequence, force=None) -> JointState:
    """Truncated-Fock evolution under H = g sigma_z x + omega n - f(t) x.

    force is None or a piecewise-constant (times, values) series, checked by
    pulses.pieces before any eigensystem is computed. On each of its
    pieces the Hamiltonian is constant and each spin sector is propagated
    exactly, e^{-i (omega n + c x) dt}: force knots are honoured exactly and
    there is no time step. The state is checked at the end of each pulse
    segment. Each distinct (n_max, |c|/omega) pair costs one
    tridiagonal eigendecomposition: force-free pairs are shared across calls
    through the _sector_eigensystem cache, forced ones only within the call.
    All of them are decomposed before the first piece is propagated, the
    phases of every force-free piece come from one exp over a table of
    piece lengths, and the state is updated in place.

    Pulses are handled in the toggling frame: the instantaneous pi flips are
    absorbed into the sign profile of the coupling, which keeps the spin-
    sector labels aligned with the closed-form branch states they are
    compared against. The physical lab state differs only by the known final
    pulse rotations, which drop out of every fidelity and moment comparison
    made here.

    A coupling |c|/omega whose tridiagonal is not finite raises ValueError
    naming it as kappa, and a phase omega E dt past the float range, forced
    or not, ResolutionError (the state's norm is not finite).

    Each call logs one DEBUG record on the "spinlev.oracle" logger, with
    record attributes n_pieces, cache_misses (of the shared cache),
    forced_decompositions, decompose_s, product_s (the propagation, from
    the phase table to the last check) and the final margins tail and drift;
    none of them is returned.
    """
    g, omega = natural.g, natural.omega
    start, end, seg, f = pulses.pieces(seq, force)
    n_max = state.n_max
    sg = np.where(seg % 2, -g, g)  # (-1)**seg g, the coupling of spin 0
    with np.errstate(over="ignore"):  # a kappa that overflows is named by _sector_eigensystem
        kappas = np.column_stack(((sg - f) / omega, (-sg - f) / omega))
    dt = end - start
    free = f == 0
    t0 = time.perf_counter()
    # a forced coupling depends on the force value, so it is decomposed apart
    # from the shared cache, where it would evict the force-free entries;
    # within the call it is kept, as a constant force meets the same two
    # couplings on every pulse segment
    decompose = _sector_eigensystem.__wrapped__
    forced = {k: decompose(n_max, k) for k in dict.fromkeys(np.abs(kappas[~free]).ravel().tolist())}
    misses = 0
    if free.any():
        # every force-free piece has |kappa| = g/omega: one eigensystem
        before = _sector_eigensystem.cache_info().misses
        evals, free_evecs = _sector_eigensystem(n_max, abs(kappas[free][0, 0].item()))
        misses = _sector_eigensystem.cache_info().misses - before
    t1 = time.perf_counter()
    psi = np.array(state.coeff.T, dtype=complex, order="C")
    re = psi.view(float)
    halves = (re[:, :2], re[:, 2:])
    odd = (psi[1::2, 0], psi[1::2, 1])
    view = JointState(psi.T)  # psi changes in place, so one wrapper serves every check
    last = np.append(seg[1:] != seg[:-1], True)  # the last piece of each pulse segment
    with np.errstate(over="ignore", invalid="ignore"):  # phases past the float range: a NaN norm
        if free.any():
            # one column per spin sector, so the product with the (n_max + 1, 2)
            # block of the state runs over contiguous rows
            table = np.exp(-1j * omega * evals * dt[free][:, None])
            phases = iter(np.stack((table, table), axis=-1))
        for (k0, k1), d, is_free, check in zip(kappas.tolist(), dt.tolist(), free.tolist(), last.tolist()):
            if abs(k0) == abs(k1):  # one product for both sectors, as on every force-free piece
                if is_free:
                    evecs, phase = free_evecs, next(phases)
                else:
                    evals_k, evecs = forced[abs(k0)]
                    phase = np.exp(-1j * omega * evals_k * d)[:, None]
                _rotate(re, [v for k, v in zip((k0, k1), odd) if k < 0], evecs, phase)
            else:
                for k, half, v in zip((k0, k1), halves, odd):
                    evals_k, evecs = forced[abs(k)]
                    _rotate(half, (v,) if k < 0 else (), evecs, np.exp(-1j * omega * evals_k * d)[:, None])
            if check:
                view.check()
    product_s = time.perf_counter() - t1
    result = JointState(np.ascontiguousarray(psi.T))
    if _log.isEnabledFor(logging.DEBUG):
        tail, drift = result.margins()
        _log.debug("%d pieces: %d cache misses, %d forced decompositions in %.6f s, products %.6f s, "
                   "margins (%.3e, %.3e)", len(dt), misses, len(forced), t1 - t0, product_s, tail, drift,
                   extra={"n_pieces": len(dt), "cache_misses": misses, "forced_decompositions": len(forced),
                          "decompose_s": t1 - t0, "product_s": product_s, "tail": tail, "drift": drift})
    return result


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


def moments_from_state(state: JointState) -> witness.MomentRecord:
    """Exact witness moments of a joint pure state.

    a|c> and a^dag|c> of each spin column c are its sqrt(n)-weighted shifts
    in the truncated basis, which give q|c> = (a + a^dag)|c>/sqrt2 and
    p|c> = (a - a^dag)|c>/(i sqrt2). q and p are Hermitian there, so every
    second moment is an overlap of two such vectors: <r r'> = <r c|r' c>.
    """
    c = state.coeff
    root = np.sqrt(np.arange(1, c.shape[1]))
    down = np.zeros_like(c)  # a|c>
    down[:, :-1] = root * c[:, 1:]
    up = np.zeros_like(c)  # a^dag|c>
    up[:, 1:] = root * c[:, :-1]
    q = (down + up) / math.sqrt(2)
    p = (down - up) / (1j * math.sqrt(2))
    (c0, c1), (q0, q1), (p0, p1) = c, q, p
    # sigma_x expectation = 2 Re <c1|c0>; S_x = sigma_x / 2
    overlap = np.vdot(c1, c0)
    sx, sy = 2 * float(overlap.real), -2 * float(overlap.imag)
    sz = float(np.vdot(c0, c0).real - np.vdot(c1, c1).real)
    mq0, mq1 = np.vdot(c0, q0).real, np.vdot(c1, q1).real  # <q> of each spin column
    mp0, mp1 = np.vdot(c0, p0).real, np.vdot(c1, p1).real
    # sigma_y r cross moments: <sigma_y r> = -2 Im <c1| r |c0>
    syq = -2 * float(np.vdot(c1, q0).imag)
    syp = -2 * float(np.vdot(c1, p0).imag)
    # np.vdot flattens, so these sum over both spin columns
    mq2, mp2 = float(np.vdot(q, q).real), float(np.vdot(p, p).real)
    mqp = 2 * float(np.vdot(q, p).real)  # <qp + pq> = 2 Re <qc|pc>
    return _record_from_raw((sx, sy, float(mq0 + mq1), float(mp0 + mp1), mq2, mp2, mqp, syq, syp,
                             float(mq0 - mq1), float(mp0 - mp1)), sz)


def _branch_raw_moments(alphas: np.ndarray, g: float, omega: float, seq: PulseSequence) -> np.ndarray:
    """Raw per-alpha moments of the two-branch state at the end of seq, closed form.

    Returns an (n, 11) array, one row (sx, sy, q, p, q2, p2, qp_sym, syq,
    syp, szq, szp) of raw (uncentered) expectation values of sigma-level
    operators per initial coherent amplitude in alphas.
    """
    alphas = np.asarray(alphas, dtype=complex)
    (th0, g0), (th1, g1) = (s[-1] for s in dynamics.branch_states(seq, g, omega, alphas)[2])
    phase = np.exp(1j * (th0 - th1))
    ov = np.exp(-np.abs(g0) ** 2 / 2 - np.abs(g1) ** 2 / 2 + np.conj(g1) * g0)
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
    return np.column_stack(
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


def _max_branch_amplitude(seq: PulseSequence, g: float, omega: float, force=None) -> float:
    """Largest |gamma| either branch reaches from the vacuum: on a piece of coefficient c
    from gamma_k, gamma circles -c/omega, so |gamma| <= |c/omega| + |gamma_k + c/omega|."""
    _, cs, paths = dynamics.branch_states(seq, g, omega, 0j, force)
    return max(abs(ck / omega) + abs(gk + ck / omega)
               for c, states in zip(cs, paths) for ck, (_, gk) in zip(c, states))


def witness_moments(
    natural: NaturalParams,
    seq: PulseSequence,
    cfg: OracleConfig = OracleConfig(),
    *,
    nbar: float = 0.0,
    coefficients: Optional[witness.WitnessCoefficients] = None,
) -> MomentEstimate:
    """Witness moments of the two-branch state at the end of seq.

    nbar 0 uses exact truncated-Fock evolution of the vacuum start;
    nbar > 0 draws Glauber-P coherent samples (alpha ~ CN(0, nbar)) and
    averages the exact per-sample branch moments, with batched standard
    errors for the assembled witness value from the means of
    max(2, min(20, n // 10)) batches of the n samples (20 from n = 200 on).
    coefficients None takes the Ramsey half-period ones (t = pi/omega); for
    other sequences pass them, e.g. witness.optimize_coefficients(est.record).
    Raises ValueError for a non-finite or negative nbar or fewer samples than batches.
    """
    _finite_nonnegative(nbar=nbar)
    g, omega = natural.g, natural.omega
    if coefficients is None:
        coefficients = witness.halfperiod_coefficients(natural.lam, nbar)
    if not nbar:
        n_max = max(_N_MAX_FLOOR, suggested_n_max((_max_branch_amplitude(seq, g, omega) + 1) ** 2))
        rec = moments_from_state(evolve(initial_state(0j, n_max), natural, seq))
        return MomentEstimate(rec, witness.witness_value(rec, coefficients), 0.0)

    n = cfg.n_trajectories
    n_batches = max(2, min(20, n // 10))
    if n < n_batches:  # an empty batch has no mean, and the standard error would be NaN
        raise ValueError(f"n_trajectories must be >= {n_batches} for a sampled witness, got {n}")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    draws = rng.normal(size=(n, 2)) * math.sqrt(nbar / 2.0)
    raw = _in_range("sampled branch moments are not finite",
                    lambda: _branch_raw_moments(draws[:, 0] + 1j * draws[:, 1], g, omega, seq), nbar=nbar)
    w_vals = [witness.witness_value(_record_from_raw(batch.mean(axis=0)), coefficients)
              for batch in np.array_split(raw, n_batches)]
    rec = _record_from_raw(raw.mean(axis=0))
    w_se = float(np.std(w_vals, ddof=1) / math.sqrt(len(w_vals)))
    return MomentEstimate(rec, witness.witness_value(rec, coefficients), w_se)


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


# ---------------------------------------------------------------------------
# Brownian-force Monte Carlo


@dataclass(frozen=True)
class BathStatistics:
    """Empirical bath-induced moment shifts with their standard errors."""

    estimate: witness.BathDeltas
    standard_error: witness.BathDeltas

    def as_pairs(self):
        """(name, estimate, standard error) per statistic, in BathDeltas' field order."""
        return tuple((f.name, getattr(self.estimate, f.name), getattr(self.standard_error, f.name))
                     for f in fields(witness.BathDeltas))


def _force_weights(seq: PulseSequence, g: float, omega: float, n_steps: int) -> np.ndarray:
    """Weights W (n_steps x 3) with (Phi, Q, P) = f @ W for a step-wise force path f.

    One step of segment_step with coefficient c = b s_k g + f_k (branch
    b = +/-1, s_k the sign at the step midpoint) maps gamma -> r gamma +
    (c/omega)(r - 1), r = e^{-i omega dt}, and adds c^2 dt/omega +
    (c/omega) Im(gamma_{k+1} - gamma_k) to theta. Writing gamma_b = b D + G,
    with D the force-free + branch and G the response to f alone, gives

        Phi = sum_k f_k [4 s_k g dt/omega + (2/omega) Im(D_{k+1} - D_k)]
              + (2 g/omega) sum_k s_k Im(G_{k+1} - G_k) + 2 Im(conj(G_N) D_N),
        Q + i P = sqrt2 G_N,   G_N = sum_j (f_j/omega)(r - 1) r^{N-1-j}.
    """
    tau = seq.total_time
    dt = tau / n_steps
    edges = np.linspace(0.0, tau, n_steps + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    s = np.where(pulses.segment_index(seq, mids) % 2 == 0, 1.0, -1.0)
    r = cmath.exp(-1j * omega * dt)
    rk = np.exp(-1j * omega * dt * np.arange(n_steps + 1))  # r^k
    # D_k = (g/omega)(r - 1) sum_{j<k} s_j r^{k-1-j}
    acc = np.concatenate(([0j], np.cumsum(s * np.conj(rk[:-1]))))
    d = (g / omega) * (r - 1) * np.conj(r) * rk * acc
    # dG_N/df_j, and T_j = sum_{k>j} s_k r^{k-1-j} from one reverse cumulative sum
    e = (r - 1) / omega * rk[n_steps - 1::-1]
    rev = np.concatenate((np.cumsum((s * rk[:-1])[::-1])[::-1], [0j]))
    tail = np.conj(rk[1:]) * rev[1:]
    w_phi = (4 * g * dt / omega * s
             # d/df_j of sum_k s_k (G_{k+1} - G_k), G_{k+1} - G_k = (r - 1)(G_k + f_k/omega)
             + (2 * g / omega) * ((r - 1) / omega * (s + (r - 1) * tail)).imag
             # D_{k+1} - D_k = (r - 1)(D_k + s_k g/omega)
             + (2 / omega) * ((r - 1) * (d[:-1] + s * g / omega)).imag
             + 2 * (np.conj(e) * d[-1]).imag)
    return np.column_stack([w_phi, math.sqrt(2) * e.real, math.sqrt(2) * e.imag])


_N_STEPS = 4096  # force grid of the bath Monte Carlo and of bath_covariance
_FORCE_ROWS = 32  # force paths drawn per block: 32 x 4096 float64 bounds the block at 1 MB


def _scaled_weights(natural: NaturalParams, seq: PulseSequence, nbar_over_q: float) -> np.ndarray:
    """sd_f * W on the force grid, so (Phi, Q, P) = z @ (sd_f W) for unit normals z.

    Raises ValueError unless nbar_over_q is finite and >= 0, and
    ResolutionError when a step is too coarse for white-noise fidelity.
    """
    _finite_nonnegative(nbar_over_q=nbar_over_q)
    omega = natural.omega
    dt = seq.total_time / _N_STEPS
    if omega * nbar_over_q * dt > 0.1:
        raise ResolutionError("dt too coarse for white-noise fidelity")
    sd_f = math.sqrt(2 * omega * nbar_over_q / dt)
    return sd_f * _force_weights(seq, natural.g, omega, _N_STEPS)


def thermal_trajectories(
    natural: NaturalParams,
    seq: PulseSequence,
    cfg: OracleConfig,
    nbar_over_q: float,
) -> BathStatistics:
    """The Brownian-force Monte Carlo of one sequence: a batch of one case."""
    return thermal_trajectories_batch(natural, [(seq, nbar_over_q)], cfg)[0]


def thermal_trajectories_batch(
    natural: NaturalParams,
    cases: Sequence[tuple[PulseSequence, float]],
    cfg: OracleConfig,
) -> list[BathStatistics]:
    """Monte Carlo of Brownian white-noise forces through exact branch dynamics.

    Each trajectory samples a piecewise-constant force with per-step variance
    2 omega (nbar/Q) / dt on a 4096-step grid, drawn from its own
    counter-based Philox stream: trajectory i reads the stream that
    Philox(key=cfg.seed, counter=i << 64) starts, and the call builds one
    generator and re-seeks it to the start of each stream (counter and
    buffer), so no generator is built per trajectory. The estimators are
    the force-linear functionals whose statistics give the bath-induced
    moment shifts: the relative branch phase Phi and the common
    displacement (Q, P); then d<q^2> = E[Q^2], d<p^2> = E[P^2],
    d<qp+pq> = 2 E[QP], dVar(S_x) = E[Phi^2]/4, and the sigma_y cross
    shifts are E[Phi Q], E[Phi P] (Phi here is the branch phase theta_+ - theta_- plus the
    overlap phase, the negative of the kernel-integral phase).

    The exact step map of dynamics.segment_step is affine in the drive, and
    the force enters both branches with the same sign, so the force-only
    amplitude G is common to both and the f G* and |G|^2 terms cancel in Phi.
    Phi, Q and P are therefore exactly linear in the sampled path
    (the discretised filter function of the sequence), and each trajectory
    costs one product with the weights of _force_weights. There is no offset
    term: at f = 0 the branches are mirror images (gamma_- = -gamma_+,
    theta_- = theta_+), so the force-free relative phase is zero for every
    sign pattern, whether or not the pulses lie on the step grid.

    cases is a sequence of (seq, nbar_over_q) pairs. A case differs from
    another only by its force scale sd_f and its weights, so every case sees
    the same unit-normal paths z: each block of z is drawn once and
    multiplied by the stacked 4096 x 3k matrix of sd_f W. Every case is
    validated before the generator is built, and its statistics equal those
    of a batch of one up to the rounding of the matrix product.

    At a fixed seed the draws are fixed, but the statistics are bit-stable
    only for one BLAS build, thread count and block size (_FORCE_ROWS = 32
    rows per product): the BLAS rounds the product z @ weights differently
    for other blockings (256-row and 32-row blocks give statistics up to
    9 ulp apart), so any of them can move the last digits of a `verify`
    report.

    The seconds spent drawing and in the products are logged at DEBUG on the
    "spinlev.oracle" logger (record attributes n_trajectories, n_cases,
    draw_s and product_s), never returned.
    """
    if cfg.n_trajectories < 100:
        raise ValueError("n_trajectories must be >= 100")
    if not cases:
        raise ValueError("cases must not be empty")
    weights = np.hstack([_scaled_weights(natural, seq, noq) for seq, noq in cases])

    bit_gen = np.random.Philox(key=cfg.seed)
    rng = np.random.Generator(bit_gen)
    # the start of stream i: counter words (0, i, 0, 0), as Philox(counter=i << 64)
    # sets them, and an empty buffer, so nothing left from stream i - 1 leaks in
    state = bit_gen.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    counter = state["state"]["counter"]

    n = cfg.n_trajectories
    samples = np.empty((n, weights.shape[1]))  # (Phi, Q, P) per trajectory and case
    forces = np.empty((min(_FORCE_ROWS, n), _N_STEPS))
    draw_s = product_s = 0.0
    for start in range(0, n, _FORCE_ROWS):
        stop = min(start + _FORCE_ROWS, n)
        z = forces[:stop - start]
        t0 = time.perf_counter()
        for i, row in enumerate(z, start):
            counter[1] = i
            bit_gen.state = state
            rng.standard_normal(out=row)
        t1 = time.perf_counter()
        samples[start:stop] = z @ weights
        draw_s += t1 - t0
        product_s += time.perf_counter() - t1
    _log.debug("%d trajectories x %d cases: draws %.6f s, products %.6f s",
               n, len(cases), draw_s, product_s,
               extra={"n_trajectories": n, "n_cases": len(cases),
                      "draw_s": draw_s, "product_s": product_s})

    out = []
    for phi, qq, pp in samples.reshape(n, -1, 3).transpose(1, 2, 0):
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
        out.append(BathStatistics(witness.BathDeltas(*mean), witness.BathDeltas(*se)))
    return out


def bath_covariance(natural: NaturalParams, seq: PulseSequence, nbar_over_q: float) -> BathStatistics:
    """Exact expectations of the thermal_trajectories estimators, without sampling.

    The force is white and Gaussian with per-step variance var_f, and
    (Phi, Q, P) = f @ W, so their covariance is exactly var_f W^T W on the
    same 4096-step grid; the standard errors are zero. It differs from the
    continuum witness.bath_deltas by O(dt^2).
    """
    w = _scaled_weights(natural, seq, nbar_over_q)
    c = w.T @ w  # var_f W^T W over (Phi, Q, P)
    return BathStatistics(witness.BathDeltas(c[0, 0] / 4, c[1, 1], c[2, 2], 2 * c[1, 2], c[0, 1], c[0, 2]),
                          witness.BathDeltas(*(0.0,) * 6))


# ---------------------------------------------------------------------------
# Gaussian squeezing oracle


def gaussian_noise_factor(n_spins: float, zeta: float, theta: float) -> float:
    """Shot-noise factor from Gaussian covariance propagation.

    Bosonized collective spin: normalized quadratures (z, y) with unit
    variance; the J_z^2 unitary shears y -> y + (kappa/4) z with
    kappa = N_s zeta; the readout rotates by theta about x and measures the
    rotated y. Returns sqrt of the measured variance (unsqueezed -> 1), for
    finite arguments and a finite result.
    """
    _finite(n_spins=n_spins, zeta=zeta, theta=theta)
    k = n_spins * zeta / 4.0
    cov = np.array([[1.0, k], [k, 1.0 + k * k]])  # (z, y') covariance
    direction = np.array([math.sin(theta), math.cos(theta)])
    return _in_range("gaussian_noise_factor is not finite", lambda: math.sqrt(float(direction @ cov @ direction)),
                     n_spins=n_spins, zeta=zeta, theta=theta)

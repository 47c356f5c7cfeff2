r"""Force-sensing noise budget: projection noise, measurement backaction,
thermal dephasing, standard-quantum-limit solvers and squeezing-enhanced
readout.

Phase conventions: the signal phase is phi = int K(s) f(s) ds with K the
sequence response kernel and f the force in natural units (Hamiltonian term
-f (a + a^dag)). The per-shot noise-to-signal ratio at force f = 1, formed in
sensitivity_spectrum alone, is

    NSR = (1/(4 N_s) + N_s Dn^2 xi + V_th) / phi^2,

with Dn the backaction phonon number, xi the cooling duty-cycle factor and
V_th the bath-induced phase variance of the same sequence-filtered kernel.

The observable relative branch phase is Phi = -4 phi: dynamics.evolve_state
under a constant force gives |Phi / phi| = 4 for Ramsey, Hahn echo and
Carr-Purcell. The projection term 1/(4 N_s) is the variance of a Phi/2
estimate, not of phi, while V_th and phi^2 are in the phi normalization.
The paper's abstract does not settle which normalization the composition
intends, so it is kept as declared. The thermal ratio V_th / phi^2 does not
depend on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pulses
from .constants import HBAR, KB
from .pulses import PulseSequence
from .units import (PhysicalParams, _finite, _finite_nonnegative, _finite_positive, _finite_result, _in_range,
                    _rescaled, to_natural)


@dataclass(frozen=True)
class NoiseBudget:
    projection_var: float
    backaction_var: float
    thermal_var: float
    signal_phase_per_force: float

    def __post_init__(self) -> None:
        _finite_nonnegative(projection_var=self.projection_var, backaction_var=self.backaction_var,
                            thermal_var=self.thermal_var)
        _finite(signal_phase_per_force=self.signal_phase_per_force)


@dataclass(frozen=True)
class SensitivityPoint:
    sweep_value: float
    eta: float  # N/sqrt(Hz)
    budget: NoiseBudget


def cooling_factor(gamma_c: float, t_c: float) -> float:
    """xi = e^{-gamma_c t_c} / (1 - e^{-gamma_c t_c}) for finite gamma_c, t_c > 0."""
    _finite_positive(gamma_c=gamma_c, t_c=t_c)
    x = gamma_c * t_c
    if x > 700.0:  # expm1 would overflow; xi is exp(-x) to double precision
        return math.exp(-x)
    return _in_range("cooling factor xi is not finite", lambda: 1.0 / math.expm1(x), gamma_c=gamma_c, t_c=t_c)


def thermal_phase_variance(seq: PulseSequence, g: float, omega: float, nbar_over_q: float) -> float:
    """Bath-induced variance of the signal phase: 2 omega (nbar/Q) int K^2 ds.

    The white-noise force correlator 2 omega (nbar/Q) delta(t - t') filtered
    through the sequence kernel. For a pulse-free window this equals one
    quarter of witness.bath_deltas(...).dvar_sx: the observable relative branch
    phase is Phi = -4 phi, and the spin variance grows by Var(Phi)/4 = 4 Var(phi).
    """
    _finite_nonnegative(nbar_over_q=nbar_over_q)
    v_th = 2 * omega * nbar_over_q * pulses.kernel_l2(seq, g, omega)
    return _finite_result("thermal phase variance is not finite", v_th,
                          g=g, omega=omega, tau=seq.total_time, nbar_over_q=nbar_over_q)


class UnboundedCouplingError(ValueError):
    """Raised when Dn = 0 or xi = 0 leaves the optimal coupling unbounded."""


def _backaction_per_g2(seq: PulseSequence, omega: float) -> float:
    """Dn/g^2 of a pulse sequence; raises UnboundedCouplingError at Dn = 0."""
    a = pulses.residual_displacement(seq, 1.0, omega)[1]
    # Dn/g^2 at a refocusing point (e.g. Ramsey with omega tau = 2 pi n) is
    # zero up to rounding of sin; compare against the tau^2 leading scale
    if a <= 1e-28 * seq.total_time * seq.total_time:
        raise UnboundedCouplingError(
            "sequence leaves zero residual displacement; optimal coupling is unbounded"
        )
    return a


def force_sql(kind: str, omega: float, tau: float, xi: float) -> float:
    """Optimal-coupling noise-to-signal at unit force, sqrt(sqrt(xi) Dn/g^2) / |phi/(g f)|.

    g-independent by construction; at small omega*tau proportional to the
    leading-order scalings 6/(w t^2), 2/t, w for the three named sequences.
    Raises UnboundedCouplingError where Dn = 0, like optimal_coupling; xi is
    finite and >= 0.
    """
    _finite_nonnegative(xi=xi)
    seq = pulses.make_sequence(kind, tau)
    a = _backaction_per_g2(seq, omega)
    phi_per_gf = abs(pulses.dc_phase(seq, 1.0, omega))  # |phi / (g f)|
    if phi_per_gf == 0.0:
        return math.inf
    return math.sqrt(math.sqrt(xi) * a) / phi_per_gf


def _balance_coupling(seq: PulseSequence, omega: float, xi: float, n_spins: float) -> float:
    """optimal_coupling of any pulse sequence; raises UnboundedCouplingError at
    Dn = 0 or xi = 0 (a cooling factor that underflows leaves no backaction)."""
    if xi == 0.0:
        raise UnboundedCouplingError(
            "cooling factor xi is 0 (no backaction); optimal coupling is unbounded")
    a = _backaction_per_g2(seq, omega)
    return _in_range("optimal coupling is not finite", lambda: 1.0 / math.sqrt(2.0 * n_spins * a * math.sqrt(xi)),
                     omega=omega, xi=xi, n_spins=n_spins)


def optimal_coupling(kind: str, omega: float, tau: float, xi: float, n_spins: float = 1.0) -> float:
    """Balance point of projection and backaction noise: g* = 1/sqrt(2 N_s (Dn/g^2) sqrt(xi)),
    for xi finite and >= 0 and N_s finite and > 0."""
    _finite_nonnegative(xi=xi)
    _finite_positive(n_spins=n_spins)
    return _balance_coupling(pulses.make_sequence(kind, tau), omega, xi, n_spins)


def projection_limit_eta(mass: float, omega: float, gradient: float, t2_star: float, gamma_e: float) -> float:
    """Spin-projection-limited sensitivity 2 m w^2 / (gamma_e dB sqrt(T2*));
    every argument finite and > 0, and the result in the float range."""
    args = dict(mass=mass, omega=omega, gradient=gradient, t2_star=t2_star, gamma_e=gamma_e)
    _finite_positive(**args)
    return _in_range("projection_limit_eta leaves the float range", lambda: _rescaled(
        lambda m, w, db, t2, ge: 2 * m * (w * w) / (ge * db * math.sqrt(t2)),
        (1, 2, -1, -0.5, -1), mass, omega, gradient, t2_star, gamma_e), positive=True, **args)


def thermal_limit_eta(mass: float, omega: float, q_factor: float, temperature: float) -> float:
    """Thermal force noise floor sqrt(4 m (w/Q) k_B T); T finite and >= 0,
    every other argument finite and > 0, and the result in the float range
    (0 at T = 0)."""
    _finite_positive(mass=mass, omega=omega, q_factor=q_factor)
    _finite_nonnegative(temperature=temperature)
    if temperature == 0.0:
        return 0.0
    return _in_range("thermal_limit_eta leaves the float range", lambda: _rescaled(
        lambda m, w, q, t: math.sqrt(4 * m * (w / q) * KB * t),
        (0.5, 0.5, -0.5, 0.5), mass, omega, q_factor, temperature), positive=True,
        mass=mass, omega=omega, q_factor=q_factor, temperature=temperature)


def sql_gradient(mass: float, t_between: float, tau_precess: float, n_spins: float, gamma_e: float) -> float:
    """Optimal gradient at the position SQL: 1 / (gamma_e tau sqrt(N_s) dx_SQL),
    dx_SQL = sqrt(hbar t / m); every argument finite and > 0, and the result
    in the float range."""
    args = dict(mass=mass, t_between=t_between, tau_precess=tau_precess, n_spins=n_spins, gamma_e=gamma_e)
    _finite_positive(**args)
    return _in_range("sql_gradient leaves the float range", lambda: _rescaled(
        lambda m, t, tau, n, ge: 1.0 / (ge * tau * math.sqrt(n) * math.sqrt(HBAR * t / m)),  # HBAR t / m: dx_SQL^2
        (0.5, -0.5, -1, -0.5, -1), mass, t_between, tau_precess, n_spins, gamma_e), positive=True, **args)


@dataclass(frozen=True)
class SensitivitySpectrum:
    """eta(nu) of one sequence over an array of angular signal frequencies.

    The noise terms that do not depend on nu are held once; nus, eta and
    signal_phase_per_force are float64 arrays of one length.
    """

    nus: np.ndarray
    eta: np.ndarray  # N/sqrt(Hz)
    signal_phase_per_force: np.ndarray
    projection_var: float
    backaction_var: float
    thermal_var: float


def sensitivity_spectrum(
    params: PhysicalParams,
    seq: PulseSequence,
    nus,
    *,
    coupling: float | None = None,
) -> SensitivitySpectrum:
    """Force sensitivity eta(nu) in N/sqrt(Hz) over an array of angular signal
    frequencies nu.

    eta = sqrt(NSR(nu) (tau + t_c)) * hbar / x0, with the coupling set to the
    projection/backaction balance point unless given explicitly. Only the
    spectral response depends on nu: the coupling, backaction and thermal
    variance are computed once for the sequence, and |T(nu)| for the whole
    array in one pulses.spectral_response call. eta is inf where the signal
    phase is 0 (coupling 0, or |T(nu)| below the float range). Raises
    ValueError for a non-finite nu, and naming the inputs when the thermal
    variance (e.g. Q = 1e-300) or the noise numerator is not finite.
    """
    nat = to_natural(params)
    omega, tau = nat.omega, seq.total_time
    xi = cooling_factor(params.cooling_rate, params.cooling_time)
    g = _balance_coupling(seq, omega, xi, params.n_spins) if coupling is None else coupling
    delta_n = pulses.residual_displacement(seq, g, omega)[1]
    nbar_over_q = nat.nbar / params.quality_factor
    v_th = thermal_phase_variance(seq, g, omega, nbar_over_q)
    nus = np.array(nus, dtype=float).reshape(-1)
    response = pulses.spectral_response(seq, g, omega, nus)
    phi_per_f = np.hypot(response.real, response.imag)  # abs() of each complex, to the bit
    n_spins, projection_var = params.n_spins, 1.0 / (4 * params.n_spins)
    backaction_var, noise = _in_range("noise numerator is not finite",
                                      lambda: (b := n_spins * delta_n ** 2 * xi, projection_var + b + v_th),
                                      coupling=g, delta_n=delta_n, xi=xi, n_spins=n_spins, thermal_var=v_th)
    with np.errstate(divide="ignore", over="ignore"):
        nsr = noise / np.square(phi_per_f)
    eta = np.sqrt(nsr * (tau + params.cooling_time)) * HBAR / nat.x0
    return SensitivitySpectrum(nus, eta, phi_per_f, projection_var, backaction_var, v_th)


def force_sensitivity(
    params: PhysicalParams,
    seq: PulseSequence,
    nu: float,
    *,
    coupling: float | None = None,
) -> SensitivityPoint:
    """Force sensitivity at one angular signal frequency: the spectrum at one nu."""
    spec = sensitivity_spectrum(params, seq, [nu], coupling=coupling)
    budget = NoiseBudget(spec.projection_var, spec.backaction_var, spec.thermal_var,
                         float(spec.signal_phase_per_force[0]))
    return SensitivityPoint(float(spec.nus[0]), float(spec.eta[0]), budget)


def squeezed_rotation(n_spins: float, zeta: float):
    """Squeezing-readout rotation angle and spin shot-noise reduction factor.

    Returns (theta, factor) with theta = -arctan(4/kappa + kappa/2) and
    factor = 1/sqrt(1 + (kappa/4)^2), kappa = N_s zeta, for N_s finite and
    > 0 and zeta finite and >= 0; ParameterError where kappa overflows.
    """
    _finite_positive(n_spins=n_spins)
    _finite_nonnegative(zeta=zeta)
    kappa = _finite_result("kappa = N_s zeta overflows", n_spins * zeta, n_spins=n_spins, zeta=zeta)
    if abs(kappa) > math.sqrt(n_spins):
        warnings.warn(
            "N_s zeta exceeds sqrt(N_s); Gaussian squeezing treatment marginal",
            stacklevel=2,
        )
    theta = -math.pi / 2 if kappa == 0 else -math.atan(4.0 / kappa + kappa / 2.0)
    try:
        factor = 1.0 / math.sqrt(1.0 + (kappa / 4.0) ** 2)
    except OverflowError:  # (kappa/4)^2 past the float range, where 1 + (kappa/4)^2 rounds to it
        factor = 4.0 / kappa
    return theta, factor

r"""Force-sensing noise budget: projection noise, measurement backaction,
thermal dephasing, standard-quantum-limit solvers and squeezing-enhanced
readout.

Phase conventions: the signal phase is phi = int K(s) f(s) ds with K the
sequence response kernel and f the force in natural units (Hamiltonian term
-f (a + a^dag)). The per-shot noise-to-signal ratio at force f = 1 is

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
from .units import PhysicalParams, to_natural


@dataclass(frozen=True)
class NoiseBudget:
    projection_var: float
    backaction_var: float
    thermal_var: float
    signal_phase_per_force: float

    def __post_init__(self) -> None:
        if min(self.projection_var, self.backaction_var, self.thermal_var) < 0:
            raise ValueError("noise terms must be >= 0")


@dataclass(frozen=True)
class SensitivityPoint:
    sweep_value: float
    eta: float  # N/sqrt(Hz)
    budget: NoiseBudget


def cooling_factor(gamma_c: float, t_c: float) -> float:
    """xi = e^{-gamma_c t_c} / (1 - e^{-gamma_c t_c}) for finite gamma_c, t_c > 0."""
    for name, value in (("gamma_c", gamma_c), ("t_c", t_c)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    x = gamma_c * t_c
    if x <= 0:
        raise ValueError("gamma_c * t_c must be > 0 (xi diverges)")
    if x > 700.0:  # expm1 would overflow; xi is exp(-x) to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def noise_to_signal(
    phi_per_f,
    delta_n: float,
    xi: float,
    n_spins: float = 1.0,
    thermal_var: float = 0.0,
):
    """(1/(4 N_s) + N_s Dn^2 xi + V_th) / phi^2 for a scalar or an array of phi;
    inf where phi = 0."""
    noise = 1.0 / (4 * n_spins) + n_spins * delta_n ** 2 * xi + thermal_var
    if np.ndim(phi_per_f):
        with np.errstate(divide="ignore"):
            return noise / (phi_per_f * phi_per_f)
    return math.inf if phi_per_f == 0.0 else noise / (phi_per_f * phi_per_f)


def thermal_phase_variance(seq: PulseSequence, g: float, omega: float, nbar_over_q: float) -> float:
    """Bath-induced variance of the signal phase: 2 omega (nbar/Q) int K^2 ds.

    The white-noise force correlator 2 omega (nbar/Q) delta(t - t') filtered
    through the sequence kernel. For a pulse-free window this equals one
    quarter of witness.bath_deltas(...).dvar_sx: the observable relative branch
    phase is Phi = -4 phi, and the spin variance grows by Var(Phi)/4 = 4 Var(phi).
    """
    if not (nbar_over_q >= 0 and math.isfinite(nbar_over_q)):
        raise ValueError(f"nbar_over_q must be finite and >= 0, got {nbar_over_q!r}")
    return 2 * omega * nbar_over_q * pulses.kernel_l2(seq, g, omega)


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


def force_sql(kind, omega: float, tau: float, xi: float) -> float:
    """Optimal-coupling noise-to-signal at unit force, sqrt(sqrt(xi) Dn/g^2) / |phi/(g f)|.

    g-independent by construction; at small omega*tau proportional to the
    leading-order scalings 6/(w t^2), 2/t, w for the three named sequences.
    Raises UnboundedCouplingError where Dn = 0, like optimal_coupling.
    """
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
    return 1.0 / math.sqrt(2.0 * n_spins * _backaction_per_g2(seq, omega) * math.sqrt(xi))


def optimal_coupling(kind, omega: float, tau: float, xi: float, n_spins: float = 1.0) -> float:
    """Balance point of projection and backaction noise: g* = 1/sqrt(2 N_s (Dn/g^2) sqrt(xi))."""
    return _balance_coupling(pulses.make_sequence(kind, tau), omega, xi, n_spins)


def projection_limit_eta(mass: float, omega: float, gradient: float, t2_star: float, gamma_e: float) -> float:
    """Spin-projection-limited sensitivity 2 m w^2 / (gamma_e dB sqrt(T2*))."""
    return 2 * mass * omega ** 2 / (gamma_e * gradient * math.sqrt(t2_star))


def thermal_limit_eta(mass: float, omega: float, q_factor: float, temperature: float) -> float:
    """Thermal force noise floor sqrt(4 m (w/Q) k_B T)."""
    return math.sqrt(4 * mass * (omega / q_factor) * KB * temperature)


def sql_gradient(mass: float, t_between: float, tau_precess: float, n_spins: float, gamma_e: float) -> float:
    """Optimal gradient at the position SQL: 1 / (gamma_e tau sqrt(N_s) dx_SQL),
    dx_SQL = sqrt(hbar t / m)."""
    dx = math.sqrt(HBAR * t_between / mass)
    return 1.0 / (gamma_e * tau_precess * math.sqrt(n_spins) * dx)


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

    @property
    def points(self) -> list[SensitivityPoint]:
        """One SensitivityPoint of Python floats per frequency."""
        return [SensitivityPoint(nu, eta, NoiseBudget(self.projection_var, self.backaction_var,
                                                      self.thermal_var, phi))
                for nu, eta, phi in zip(self.nus.tolist(), self.eta.tolist(),
                                        self.signal_phase_per_force.tolist())]


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
    array in one pulses.spectral_response call. Raises ValueError for a
    non-finite nu and when the thermal variance is not finite (e.g. Q = 1e-300).
    """
    nat = to_natural(params)
    omega, tau = nat.omega, seq.total_time
    xi = cooling_factor(params.cooling_rate, params.cooling_time)
    g = _balance_coupling(seq, omega, xi, params.n_spins) if coupling is None else coupling
    delta_n = pulses.residual_displacement(seq, g, omega)[1]
    nbar_over_q = nat.nbar / params.quality_factor
    v_th = thermal_phase_variance(seq, g, omega, nbar_over_q)
    if not math.isfinite(v_th):
        raise ValueError(f"thermal phase variance is not finite ({v_th!r}) at nbar/Q = {nbar_over_q!r}")
    nus = np.array(nus, dtype=float).reshape(-1)
    response = pulses.spectral_response(seq, g, omega, nus)
    phi_per_f = np.hypot(response.real, response.imag)  # abs() of each complex, to the bit
    nsr = noise_to_signal(phi_per_f, delta_n, xi, params.n_spins, v_th)
    eta = np.sqrt(nsr * (tau + params.cooling_time)) * HBAR / nat.x0
    return SensitivitySpectrum(nus, eta, phi_per_f, 1.0 / (4 * params.n_spins),
                               params.n_spins * delta_n ** 2 * xi, v_th)


def force_sensitivity(
    params: PhysicalParams,
    seq: PulseSequence,
    nu: float,
    *,
    coupling: float | None = None,
) -> SensitivityPoint:
    """Force sensitivity at one angular signal frequency: the spectrum at one nu."""
    return sensitivity_spectrum(params, seq, [nu], coupling=coupling).points[0]


def squeezed_rotation(n_spins: float, zeta: float):
    """Squeezing-readout rotation angle and spin shot-noise reduction factor.

    Returns (theta, factor) with theta = -arctan(4/kappa + kappa/2) and
    factor = 1/sqrt(1 + (kappa/4)^2), kappa = N_s zeta.
    """
    kappa = n_spins * zeta
    if abs(kappa) > math.sqrt(n_spins):
        warnings.warn(
            "N_s zeta exceeds sqrt(N_s); Gaussian squeezing treatment marginal",
            stacklevel=2,
        )
    theta = -math.pi / 2 if kappa == 0 else -math.atan(4.0 / kappa + kappa / 2.0)
    factor = 1.0 / math.sqrt(1.0 + (kappa / 4.0) ** 2)
    return theta, factor

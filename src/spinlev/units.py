r"""Parameter records and SI <-> natural oscillator unit conversion.

All internal computation elsewhere in the package is done in natural units
(hbar = 1, dimensionless quadratures q = (a+a^dag)/sqrt2, p = (a-a^dag)/(i sqrt2)).
SI quantities enter and leave through this module only.

The spin-motion coupling is g = gamma_e * dB * x0 / 2 with oscillator length
x0 = sqrt(hbar / (2 m omega)); the dimensionless coupling is lambda = 2 g / omega
and the mechanical damping rate is gamma = omega / Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import GAMMA_E_DEFAULT, HBAR, KB


class ParameterError(ValueError):
    """Raised when a physical or natural parameter is out of domain."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _finite_positive(name: str, value: float) -> None:
    _require(math.isfinite(value) and value > 0, f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-unit description of the device.

    Exactly one of ``temperature`` (K) and ``nbar`` must be given.
    """

    mass: float  # kg
    trap_frequency: float  # rad/s
    gradient: float  # T/m
    gyromagnetic_ratio: float = GAMMA_E_DEFAULT  # rad/(s T)
    n_spins: int = 1
    quality_factor: float = 1e6
    temperature: float | None = None  # K
    nbar: float | None = None
    t2: float = 300e-6  # s
    t2_star: float = 1e-6  # s
    cooling_rate: float = 1e3  # 1/s
    cooling_time: float = 100e-6  # s
    larmor_frequency: float = 0.0  # rad/s

    def __post_init__(self) -> None:
        _finite_positive("mass", self.mass)
        _finite_positive("trap_frequency", self.trap_frequency)
        _finite_positive("quality_factor", self.quality_factor)
        _require(math.isfinite(self.gradient) and self.gradient >= 0, "gradient must be >= 0")
        _require(self.gyromagnetic_ratio > 0, "gyromagnetic_ratio must be > 0")
        _require(self.n_spins >= 1, "n_spins must be >= 1")
        _require(
            (self.temperature is None) != (self.nbar is None),
            "exactly one of temperature / nbar must be set",
        )
        if self.temperature is not None:
            _require(self.temperature >= 0, "temperature must be >= 0")
        if self.nbar is not None:
            _require(self.nbar >= 0, "nbar must be >= 0")
        for name in ("t2", "t2_star", "cooling_rate", "cooling_time"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")

    def with_(self, **kwargs) -> "PhysicalParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class NaturalParams:
    """Natural-unit parameters: everything the physics modules consume."""

    g: float  # rad/s
    omega: float  # rad/s
    lam: float  # 2 g / omega
    nbar: float
    gamma: float  # omega / Q, rad/s
    x0: float  # m
    larmor: float  # rad/s

    def __post_init__(self) -> None:
        _require(self.omega > 0, "omega must be > 0")
        _require(self.g >= 0, "g must be >= 0")


def nbar_from_temperature(temperature: float, omega: float) -> float:
    """Bose occupation 1/(exp(hbar omega / k_b T) - 1); returns 0 at T = 0."""
    _require(temperature >= 0, "temperature must be >= 0")
    _finite_positive("omega", omega)
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def oscillator_length(mass: float, omega: float) -> float:
    """x0 = sqrt(hbar / (2 m omega))."""
    _finite_positive("mass", mass)
    _finite_positive("omega", omega)
    return math.sqrt(HBAR / (2.0 * mass * omega))


def to_natural(p: PhysicalParams) -> NaturalParams:
    """Convert laboratory parameters to natural oscillator units."""
    omega = p.trap_frequency
    x0 = oscillator_length(p.mass, omega)
    g = p.gyromagnetic_ratio * p.gradient * x0 / 2.0
    nbar = p.nbar if p.nbar is not None else nbar_from_temperature(p.temperature, omega)
    return NaturalParams(
        g=g,
        omega=omega,
        lam=2.0 * g / omega,
        nbar=nbar,
        gamma=omega / p.quality_factor,
        x0=x0,
        larmor=p.larmor_frequency,
    )


def to_physical(
    n: NaturalParams,
    gyromagnetic_ratio: float = GAMMA_E_DEFAULT,
    quality_factor: float | None = None,
    **extra,
) -> PhysicalParams:
    """Invert to_natural: recover (mass, gradient, ...) from natural parameters."""
    _finite_positive("x0", n.x0)
    mass = HBAR / (2.0 * n.omega * n.x0**2)
    gradient = 2.0 * n.g / (gyromagnetic_ratio * n.x0)
    q = quality_factor if quality_factor is not None else n.omega / n.gamma
    extra.setdefault("nbar", n.nbar)
    return PhysicalParams(
        mass=mass,
        trap_frequency=n.omega,
        gradient=gradient,
        gyromagnetic_ratio=gyromagnetic_ratio,
        quality_factor=q,
        larmor_frequency=n.larmor,
        **extra,
    )


def coupling_ratio_scaling(p1: PhysicalParams, p2: PhysicalParams) -> float:
    """(g/omega)_1 / (g/omega)_2.

    Algebraically equals (dB1/dB2) * sqrt(m2/m1) * (omega2/omega1)^(3/2) when the
    gyromagnetic ratios agree.
    """
    n1, n2 = to_natural(p1), to_natural(p2)
    _require(n2.g > 0, "second parameter set has zero coupling")
    return (n1.g / n1.omega) / (n2.g / n2.omega)


# The reference device in the JSON schema below: 1.5e-14 kg at 100 Hz in a
# 1 T/m gradient, nbar = Q = 1e6, cooled at 1e3 1/s for 1e-4 s.
REFERENCE_DEVICE = {
    "mass_kg": 1.5e-14, "freq_hz": 100.0, "gradient_t_per_m": 1.0, "nbar": 1e6,
    "q_factor": 1e6, "cooling_rate_hz": 1e3, "cooling_time_s": 1e-4,
}

# JSON parameter schema consumed by the CLI.
_JSON_KEYS = {
    "mass_kg": "mass",
    "gradient_t_per_m": "gradient",
    "gamma_e_rad_per_s_t": "gyromagnetic_ratio",
    "n_spins": "n_spins",
    "q_factor": "quality_factor",
    "temperature_k": "temperature",
    "nbar": "nbar",
    "t2_s": "t2",
    "t2star_s": "t2_star",
    "cooling_time_s": "cooling_time",
}


def params_from_dict(d: dict) -> PhysicalParams:
    """Build PhysicalParams from the CLI JSON schema (frequencies given in Hz)."""
    kwargs = {}
    for key, field in _JSON_KEYS.items():
        if key in d:
            kwargs[field] = d[key]
    if "freq_hz" not in d:
        raise ParameterError("config missing required key freq_hz")
    if "mass_kg" not in d:
        raise ParameterError("config missing required key mass_kg")
    kwargs["trap_frequency"] = 2.0 * math.pi * d["freq_hz"]
    if "cooling_rate_hz" in d:
        kwargs["cooling_rate"] = d["cooling_rate_hz"]
    if "larmor_hz" in d:
        kwargs["larmor_frequency"] = 2.0 * math.pi * d["larmor_hz"]
    if "temperature_k" not in d and "nbar" not in d:
        kwargs["nbar"] = 0.0
    try:
        return PhysicalParams(**kwargs)
    except TypeError as exc:
        raise ParameterError(str(exc)) from exc

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
import numbers
from dataclasses import dataclass

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
    cooling_rate: float = 1e3  # 1/s
    cooling_time: float = 100e-6  # s
    larmor_frequency: float = 0.0  # rad/s

    def __post_init__(self) -> None:
        _finite_positive("mass", self.mass)
        _finite_positive("trap_frequency", self.trap_frequency)
        _finite_positive("quality_factor", self.quality_factor)
        _require(math.isfinite(self.gradient) and self.gradient >= 0, "gradient must be >= 0")
        for name, value in vars(self).items():  # every field that is set is finite
            _require(value is None or math.isfinite(value), f"{name} must be finite, got {value!r}")
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
        for name in ("cooling_rate", "cooling_time"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")


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
        _finite_positive("omega", self.omega)
        _require(math.isfinite(self.g) and self.g >= 0, f"g must be finite and >= 0, got {self.g!r}")


def nbar_from_temperature(temperature: float, omega: float) -> float:
    """Bose occupation 1/(exp(hbar omega / k_b T) - 1); returns 0 at T = 0."""
    _require(math.isfinite(temperature) and temperature >= 0,
             f"temperature must be finite and >= 0, got {temperature!r}")
    _finite_positive("omega", omega)
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def oscillator_length(mass: float, omega: float) -> float:
    """x0 = sqrt(hbar / (2 m omega)); raises ParameterError when x0 underflows
    to 0 or overflows (e.g. mass 1e300 kg)."""
    _finite_positive("mass", mass)
    _finite_positive("omega", omega)
    denom = 2.0 * mass * omega
    x0 = math.sqrt(HBAR / denom) if denom > 0 else math.inf
    _require(math.isfinite(x0) and x0 > 0, f"oscillator length x0 = {x0!r} m is not finite and > 0 "
                                           f"at mass {mass!r} kg, omega {omega!r} rad/s")
    return x0


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
    "cooling_time_s": "cooling_time",
}


def json_number(value, key: str) -> float:
    """float(value) for a JSON number (an int or a float); anything else (a
    boolean, a string, null, a list, an object) or an integer beyond the
    float range raises ParameterError naming the key."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ParameterError(f"{key} = {value!r} is beyond the float range") from None
    raise ParameterError(f"{key} must be a number, got {value!r}")


def params_from_dict(d: dict) -> PhysicalParams:
    """Build PhysicalParams from the CLI JSON schema (frequencies given in Hz).

    Every value must be a JSON number (json_number) and n_spins an integral
    one; anything else raises ParameterError naming the key."""
    if "freq_hz" not in d:
        raise ParameterError("config missing required key freq_hz")
    if "mass_kg" not in d:
        raise ParameterError("config missing required key mass_kg")
    kwargs = {}
    for key, field in _JSON_KEYS.items():
        if key in d:
            kwargs[field] = json_number(d[key], key)
    if "n_spins" in kwargs:
        _require(kwargs["n_spins"].is_integer(), f"n_spins must be an integer, got {d['n_spins']!r}")
        kwargs["n_spins"] = int(kwargs["n_spins"])
    kwargs["trap_frequency"] = 2.0 * math.pi * json_number(d["freq_hz"], "freq_hz")
    if "cooling_rate_hz" in d:
        kwargs["cooling_rate"] = json_number(d["cooling_rate_hz"], "cooling_rate_hz")
    if "larmor_hz" in d:
        kwargs["larmor_frequency"] = 2.0 * math.pi * json_number(d["larmor_hz"], "larmor_hz")
    if "temperature_k" not in d and "nbar" not in d:
        kwargs["nbar"] = 0.0
    try:
        return PhysicalParams(**kwargs)
    except TypeError as exc:
        raise ParameterError(str(exc)) from exc

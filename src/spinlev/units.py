r"""Parameter records and SI <-> natural oscillator unit conversion.

All internal computation elsewhere in the package is done in natural units
(hbar = 1, dimensionless quadratures q = (a+a^dag)/sqrt2, p = (a-a^dag)/(i sqrt2)).
SI quantities enter and leave through this module only.

The spin-motion coupling is g = gamma_e * dB * x0 / 2 with oscillator length
x0 = sqrt(hbar / (2 m omega)); the dimensionless coupling is lambda = 2 g / omega
and the mechanical damping rate is gamma = omega / Q.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E_DEFAULT, HBAR, KB


class ParameterError(ValueError):
    """Raised when a physical or natural parameter is out of domain."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


# One rule per domain. Each helper checks its keyword arguments in order and
# builds its message only when one fails.
def _finite(**args: float) -> None:
    for name, value in args.items():
        if not -math.inf < value < math.inf:
            raise ParameterError(f"{name} must be finite, got {value!r}")


def _finite_positive(**args: float) -> None:
    for name, value in args.items():
        if not 0 < value < math.inf:
            raise ParameterError(f"{name} must be finite and > 0, got {value!r}")


def _finite_nonnegative(**args: float) -> None:
    for name, value in args.items():
        if not 0 <= value < math.inf:
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def _finite_result(what: str, value, /, positive: bool = False, **inputs):
    """value, a number, a tuple or list of numbers or arrays, or a record of
    numbers, when every entry is finite (and > 0 if positive); otherwise
    ParameterError "<what> at <input> = <value>, ...", naming the inputs."""
    entries = (value if isinstance(value, (tuple, list))
               else vars(value).values() if dataclasses.is_dataclass(value) else (value,))
    if not all(_entry_in_range(v, positive) for v in entries):
        raise _not_finite(what, **inputs)
    return value


def _not_finite(what: str, /, **inputs) -> ParameterError:
    """ParameterError "<what> at <input> = <value>, ...", naming the inputs."""
    return ParameterError(f"{what} at " + ", ".join(f"{k} = {v!r}" for k, v in inputs.items()))


def _in_range(what: str, formula, /, positive: bool = False, **inputs):
    """_finite_result of formula(), evaluated with numpy's overflow warnings
    silenced. A float ** or a division past the range counts as inf, as does
    a math function given an intermediate that left it (math domain error,
    e.g. sin(inf))."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = formula()
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        if isinstance(exc, ValueError) and exc.args != ("math domain error",):
            raise
        value = math.inf
    return _finite_result(what, value, positive, **inputs)


def _entry_in_range(v, positive: bool) -> bool:
    """Is v, a number or an array, finite everywhere (and > 0 if positive)?"""
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all() and (not positive or (v > 0).all()))
    return cmath.isfinite(v) and (not positive or v > 0)


def _rescaled(formula, powers, *args) -> float:
    """formula(*args) for a formula that is a constant times the product of
    args[i] ** powers[i], every arg > 0 and every power a multiple of 1/2.
    It runs on the frexp mantissas of args, taken in [0.5, 2) with an even
    exponent, and one ldexp adds the exponents back. So no intermediate
    leaves the normal range, the result rounds once (OverflowError past the
    range, a subnormal or 0 below it), and where formula(*args) has only
    normal intermediates its bits are kept, as power-of-two scaling is exact."""
    mantissas, exponent = [], 0
    for arg, power in zip(args, powers, strict=True):
        m, e = math.frexp(arg)
        mantissas.append(m * 2.0 if e % 2 else m)
        exponent += int(power * (e - e % 2))
    return math.ldexp(formula(*mantissas), exponent)


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
        _finite_positive(mass=self.mass, trap_frequency=self.trap_frequency, quality_factor=self.quality_factor)
        _finite(**{name: value for name, value in vars(self).items() if value is not None})
        _finite_positive(gyromagnetic_ratio=self.gyromagnetic_ratio, cooling_rate=self.cooling_rate,
                         cooling_time=self.cooling_time)
        # an unset (None) temperature or nbar passes as 0
        _finite_nonnegative(gradient=self.gradient, temperature=self.temperature or 0.0, nbar=self.nbar or 0.0)
        _require(self.n_spins >= 1, "n_spins must be >= 1")
        _require(
            (self.temperature is None) != (self.nbar is None),
            "exactly one of temperature / nbar must be set",
        )


@dataclass(frozen=True)
class NaturalParams:
    """Natural-unit parameters: everything the physics modules consume.

    Every field is finite, g and nbar >= 0 and omega > 0, except lam =
    2 g / omega, which is not NaN but may overflow to inf."""

    g: float  # rad/s
    omega: float  # rad/s
    lam: float  # 2 g / omega
    nbar: float
    gamma: float  # omega / Q, rad/s
    x0: float  # m
    larmor: float  # rad/s

    def __post_init__(self) -> None:
        _finite_positive(omega=self.omega)
        _finite_nonnegative(g=self.g, nbar=self.nbar)
        _finite(gamma=self.gamma, x0=self.x0, larmor=self.larmor)
        _require(not math.isnan(self.lam), "lam must not be NaN")  # 2 g / omega may overflow to inf


def nbar_from_temperature(temperature: float, omega: float) -> float:
    """Bose occupation 1/(exp(hbar omega / k_b T) - 1); returns 0 at T = 0.

    Raises ParameterError when the occupation overflows (k_b T / hbar omega
    beyond the float range)."""
    _finite_nonnegative(temperature=temperature)
    _finite_positive(omega=omega)
    if temperature == 0.0:
        return 0.0
    try:
        x = _rescaled(lambda w, t: HBAR * w / (KB * t), (1, -1), omega, temperature)
    except OverflowError:  # hbar omega / k_b T is past the float range: the occupation underflows to 0
        return 0.0
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to double precision
        return math.exp(-x)
    nbar = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    _require(math.isfinite(nbar), f"occupation nbar overflows at temperature {temperature!r} K, "
                                  f"omega {omega!r} rad/s")
    return nbar


def oscillator_length(mass: float, omega: float) -> float:
    """x0 = sqrt(hbar / (2 m omega)); raises ParameterError when x0 underflows
    to 0."""
    _finite_positive(mass=mass, omega=omega)
    x0 = _rescaled(lambda m, w: math.sqrt(HBAR / (2.0 * m * w)), (-0.5, -0.5), mass, omega)
    _require(x0 > 0, f"oscillator length x0 = {x0!r} m is not > 0 at mass {mass!r} kg, omega {omega!r} rad/s")
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
# Every key params_from_dict reads: _JSON_KEYS and the keys it converts itself.
DEVICE_KEYS = frozenset(_JSON_KEYS) | {"freq_hz", "cooling_rate_hz", "larmor_hz"}


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

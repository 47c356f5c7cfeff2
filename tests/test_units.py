"""Unit conversion, parameter validation, and JSON schema tests."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, strategies as st

from spinlev import units
from spinlev.constants import HBAR, KB
from spinlev.units import (
    ParameterError,
    PhysicalParams,
    nbar_from_temperature,
    oscillator_length,
    params_from_dict,
    to_natural,
)


def base_params(**kw):
    d = dict(mass=1e-15, trap_frequency=2 * math.pi * 1e3, gradient=1e5, nbar=0.0)
    d.update(kw)
    return PhysicalParams(**d)


class TestPhysicalParams:
    def test_requires_exactly_one_of_temperature_nbar(self):
        with pytest.raises(ParameterError):
            base_params(temperature=1.0, nbar=0.0)
        with pytest.raises(ParameterError):
            PhysicalParams(mass=1e-15, trap_frequency=1.0, gradient=0.0)

    def test_rejects_nonpositive_mass_and_frequency(self):
        with pytest.raises(ParameterError):
            base_params(mass=0.0)
        with pytest.raises(ParameterError):
            base_params(trap_frequency=-1.0)

    @pytest.mark.parametrize("n_spins", [2.5, 3.0, True, math.nan])
    def test_n_spins_must_be_an_integer(self, n_spins):
        # only params_from_dict checked it: 2.5, 3.0 and True reached the balance coupling
        with pytest.raises(ParameterError, match=f"^n_spins must be an integer, got {re.escape(repr(n_spins))}$"):
            base_params(n_spins=n_spins)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gyromagnetic_ratio", "temperature", "nbar", "cooling_rate",
                                       "cooling_time", "larmor_frequency"])
    def test_non_finite_field_rejected_by_name(self, field, bad):
        # temperature = inf once reached nbar_from_temperature as 1/expm1(0)
        kw = {"nbar": None, field: bad} if field == "temperature" else {field: bad}
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got {bad!r}$"):
            base_params(**kw)


class TestToNatural:
    def test_doubling_gradient_doubles_g(self):
        p = base_params()
        n1, n2 = to_natural(p), to_natural(dataclasses.replace(p, gradient=2 * p.gradient))
        assert n2.g == 2 * n1.g

    def test_lambda_is_two_g_over_omega_bitwise(self):
        n = to_natural(base_params())
        assert n.lam == 2.0 * n.g / n.omega

    def test_gamma_is_omega_over_q(self):
        p = base_params(quality_factor=2.5e6)
        assert to_natural(p).gamma == pytest.approx(p.trap_frequency / 2.5e6, rel=1e-15)

    def test_coupling_ratio_omega_scaling(self):
        # g/omega scales as omega^{-3/2} at fixed mass and gradient
        p = base_params()
        n1, n4 = to_natural(p), to_natural(dataclasses.replace(p, trap_frequency=4 * p.trap_frequency))
        assert (n4.g / n4.omega) / (n1.g / n1.omega) == pytest.approx(1.0 / 8.0, rel=1e-12)


class TestNaturalParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["g", "omega"])
    def test_non_finite_coupling_and_frequency_rejected(self, name, bad):
        fields = dict(g=0.2, omega=1.0, lam=0.4, nbar=0.0, gamma=1e-6, x0=1.0, larmor=0.0)
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            units.NaturalParams(**{**fields, name: bad})


class TestNbarFromTemperature:
    def test_zero_temperature(self):
        assert nbar_from_temperature(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_temperature_rejected(self, bad):
        with pytest.raises(ParameterError, match="temperature must be finite and >= 0"):
            nbar_from_temperature(bad, 1.0)

    def test_ln2_point(self):
        omega = 2 * math.pi * 1e6
        t = HBAR * omega / (KB * math.log(2.0))
        assert nbar_from_temperature(t, omega) == pytest.approx(1.0, rel=1e-12)

    def test_high_temperature_limit(self):
        omega = 2 * math.pi * 100.0
        exact = nbar_from_temperature(300.0, omega)
        classical = KB * 300.0 / (HBAR * omega)
        assert exact == pytest.approx(classical, rel=1e-8)

    @given(
        t=st.floats(1e-3, 1e3),
        scale=st.floats(1.1, 10.0),
        omega=st.floats(1.0, 1e8),
    )
    def test_monotone_in_t_and_omega(self, t, scale, omega):
        assert nbar_from_temperature(scale * t, omega) > nbar_from_temperature(t, omega)
        assert nbar_from_temperature(t, scale * omega) < nbar_from_temperature(t, omega)

    def test_underflowing_energy_keeps_the_ratio(self):
        # hbar omega underflows to 0 at omega = 1e-300; nbar depends on T/omega only
        assert nbar_from_temperature(1e-300, 1e-300) == nbar_from_temperature(1.0, 1.0)
        assert nbar_from_temperature(1e-300, 1e-300) == pytest.approx(KB / HBAR - 0.5, rel=1e-12)

    @pytest.mark.parametrize("temperature,omega,scale", [(1e-289, 1e-289, 1e289), (1e-280, 1e-280, 1e280)])
    def test_subnormal_energy_keeps_the_ratio(self, temperature, omega, scale):
        # hbar omega (and at 1e-289 also k_b T) is subnormal, short of digits:
        # (1e-289, 1e-289) gave 1.3972e11 against 1.3092e11 at (1, 1)
        assert nbar_from_temperature(temperature, omega) == pytest.approx(
            nbar_from_temperature(temperature * scale, omega * scale), rel=1e-12)

    def test_underflowing_thermal_energy_gives_zero(self):
        # k_b T underflows to 0 at T = 1e-310; hbar omega / k_b T is far past 700
        assert nbar_from_temperature(1e-310, 1.0) == 0.0

    @pytest.mark.parametrize("temperature,omega", [(1e100, 1e-200), (1e300, 1e-300)])
    def test_overflowing_occupation_rejected(self, temperature, omega):
        # k_b T / hbar omega is beyond the float range: 1/expm1(x) was inf or 1/0
        with pytest.raises(ParameterError, match=re.escape(f"nbar overflows at temperature {temperature!r} K")):
            nbar_from_temperature(temperature, omega)

    @given(t=st.floats(1e-30, 1e30), omega=st.floats(1e-30, 1e30))
    def test_bits_unchanged_where_no_product_underflows(self, t, omega):
        x = HBAR * omega / (KB * t)
        assert nbar_from_temperature(t, omega) == (math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x))


class TestOscillatorLength:
    def test_value(self):
        m, omega = 1e-15, 2 * math.pi * 1e3
        assert oscillator_length(m, omega) == pytest.approx(
            math.sqrt(HBAR / (2 * m * omega)), rel=1e-15
        )

    def test_scaling(self):
        assert oscillator_length(1e-15, 4.0) == pytest.approx(
            oscillator_length(1e-15, 1.0) / 2, rel=1e-14
        )

    def test_underflow_raises(self):
        # x0 = 1e-325 rounds to 0; for finite m, omega > 0 it cannot overflow.
        # (1e300, 2 pi 100) and (1e-300, 1e-300), where 2 m omega left the range
        # and this raised, are in-range examples of the 40-digit test in test_sensing.
        with pytest.raises(ParameterError, match=r"x0 = 0\.0 m .* at mass 1e\+308 kg, omega 1e\+308 "):
            oscillator_length(1e308, 1e308)

    @given(mass=st.floats(1e-30, 1e30), omega=st.floats(1e-30, 1e30))
    def test_bits_unchanged_where_no_product_underflows(self, mass, omega):
        assert oscillator_length(mass, omega) == math.sqrt(HBAR / (2.0 * mass * omega))


class TestParamsFromDict:
    def test_minimal(self):
        p = params_from_dict({"mass_kg": 1e-15, "freq_hz": 1e3, "gradient_t_per_m": 1e5})
        assert p.trap_frequency == pytest.approx(2 * math.pi * 1e3, rel=1e-15)
        assert p.nbar == 0.0

    def test_missing_required_keys(self):
        with pytest.raises(ParameterError):
            params_from_dict({"mass_kg": 1e-15})
        with pytest.raises(ParameterError):
            params_from_dict({"freq_hz": 1e3})

    @pytest.mark.parametrize("key,value", [("freq_hz", "100"), ("mass_kg", True), ("nbar", None),
                                           ("larmor_hz", [1.0]), ("n_spins", 2.5),
                                           ("q_factor", 10 ** 400)])
    def test_value_not_a_number_raises_naming_key(self, key, value):
        d = {"mass_kg": 1e-15, "freq_hz": 1e3, "gradient_t_per_m": 1e5, key: value}
        with pytest.raises(ParameterError, match=key):
            params_from_dict(d)

    @pytest.mark.parametrize("key", sorted(units.DEVICE_KEYS))
    def test_every_device_key_is_read(self, key):
        d = {"mass_kg": 1e-15, "freq_hz": 1e3, key: "1"}
        with pytest.raises(ParameterError, match=f"^{key} must be a number"):
            params_from_dict(d)

    def test_integral_n_spins_is_an_int(self):
        p = params_from_dict({"mass_kg": 1e-15, "freq_hz": 1e3, "gradient_t_per_m": 1e5,
                              "n_spins": 3.0})
        assert p.n_spins == 3 and isinstance(p.n_spins, int)

    def test_frequency_keys_in_hz(self):
        p = params_from_dict(
            {"mass_kg": 1e-15, "freq_hz": 100.0, "gradient_t_per_m": 0.0,
             "cooling_rate_hz": 1e3, "larmor_hz": 5.0}
        )
        assert p.cooling_rate == 1e3
        assert p.larmor_frequency == pytest.approx(2 * math.pi * 5.0, rel=1e-15)

    def test_temperature_key(self):
        p = params_from_dict(
            {"mass_kg": 1e-15, "freq_hz": 100.0, "gradient_t_per_m": 0.0,
             "temperature_k": 0.01}
        )
        assert p.temperature == 0.01 and p.nbar is None

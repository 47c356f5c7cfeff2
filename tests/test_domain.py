"""One domain table for the public API.

Every public function of pulses, dynamics, witness, sensing, units and
oracle that takes a float argument is listed in TABLE with the domain of each
such argument. Each argument is tried, the others held at a base point, at the
edge values EDGES and at hypothesis draws, and each call must end in one of
three ways:

* a finite result (every number in it, records and arrays included);
* the non-finite value or the typed error its docstring names
  (Row.documented, Row.raises);
* a ValueError (ParameterError subclasses it) whose message names the
  argument: its domain rule, or the inputs of a result that leaves the float
  range.

An argument outside its domain must raise. pytest turns a numpy
RuntimeWarning into a failure (pyproject.toml), so an overflow that only
warns fails here too; every row, violation_scan's included, runs with
numpy's default error state.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlev import dynamics, oracle, pulses, sensing, units, witness
from spinlev.oracle import CutoffError, OracleConfig, ResolutionError
from spinlev.pulses import hahn_echo

EDGES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300)


class Domain(NamedTuple):
    text: str
    contains: Callable[[float], bool]


REAL = Domain("finite", math.isfinite)
POS = Domain("finite and > 0", lambda x: math.isfinite(x) and x > 0)
NONNEG = Domain("finite and >= 0", lambda x: math.isfinite(x) and x >= 0)
UNIT = Domain("in [0, tau] = [0, 1]", lambda x: 0.0 <= x <= 1.0)


class Row(NamedTuple):
    call: Callable  # takes the tabled arguments by keyword
    args: dict  # argument -> (base value, Domain)
    names: dict = {}  # argument -> the names a message may use for it, where they differ
    documented: Optional[Callable] = None  # is this non-finite result the one the docstring names?
    raises: tuple = ()  # typed errors the docstring names, whatever their message


SEQ = hahn_echo(1.0)  # the sequence of the oracle rows; the others build hahn_echo(tau)
FORCE = ([0.0, 0.4, 1.0], [0.2, -0.1])
CFG = OracleConfig(n_trajectories=100)
NAT = units.NaturalParams(g=0.25, omega=1.0, lam=0.5, nbar=0.0, gamma=1e-6, x0=1.0, larmor=0.0)
DEVICE = dict(mass=1.5e-14, trap_frequency=2 * math.pi * 100, gradient=1e4, gyromagnetic_ratio=1.76e11,
              n_spins=1, quality_factor=1e6, cooling_rate=1e3, cooling_time=1e-4, larmor_frequency=0.0)
PHYS = units.PhysicalParams(**DEVICE, nbar=10.0)

G, W = (0.7, REAL), (1.3, POS)  # a coupling and a trap frequency
COUPLING = {"g": G, "omega": W}
TAU = {"tau": (1.0, POS)}
ECHO = {**COUPLING, **TAU}  # the arguments of a function of hahn_echo(tau), g and omega
NAMED_TAU = {"tau": ("tau", "total_time")}  # PulseSequence names its time total_time
# the kernels name the coupling g
COUPLING_NAMES = {"coupling": ("coupling", "g")}
NOT_NAN = Domain("not NaN (2 g / omega may overflow)", lambda x: not math.isnan(x))


def _only_inf(a) -> bool:
    """Is every non-finite entry of a +inf?"""
    return bool(np.all(np.isfinite(a) | np.isposinf(a)))


def _only_log10_ratio_neginf(r) -> bool:
    """Is every non-finite number of a ScanResult a -inf of log10_w_ratio (no violation)?"""
    rest = [n for field, v in vars(r).items() if field != "log10_w_ratio" for n in _numbers(v)]
    return all(map(cmath.isfinite, rest)) and bool(np.all(np.isfinite(r.log10_w_ratio) | np.isneginf(r.log10_w_ratio)))


def _nat(**fields):
    return dataclasses.replace(NAT, **fields)


def _scan(**kw):
    return witness.violation_scan(kw.pop("mode"), "t", [0.1, 0.5, 2.0, 3.0], **kw)


_SCAN_ARGS = {"lam": (0.5, REAL), "omega": (1.0, POS), "omega_l": (0.2, REAL), "nbar": (0.3, NONNEG),
              "nbar_over_q": (1e-3, NONNEG)}

TABLE = {
    # pulses
    "pulses.PulseSequence": Row(lambda total_time: pulses.PulseSequence(total_time, ()),
                                {"total_time": (1.0, POS)}),
    "pulses.custom": Row(lambda tau: pulses.custom(tau, [0.5]), TAU, NAMED_TAU),
    "pulses.make_sequence": Row(lambda tau: pulses.make_sequence("carr_purcell2", tau), TAU, NAMED_TAU),
    "pulses.check_coupling": Row(pulses.check_coupling, ECHO),
    "pulses.residual_displacement": Row(lambda tau, **kw: pulses.residual_displacement(hahn_echo(tau), **kw),
                                        ECHO, NAMED_TAU),
    "pulses.kernel_l2": Row(lambda tau, **kw: pulses.kernel_l2(hahn_echo(tau), **kw), ECHO, NAMED_TAU),
    "pulses.squeezing_parameter": Row(lambda tau, **kw: pulses.squeezing_parameter(hahn_echo(tau), **kw),
                                      ECHO, NAMED_TAU),
    "pulses.dc_phase": Row(lambda tau, **kw: pulses.dc_phase(hahn_echo(tau), **kw), ECHO, NAMED_TAU),
    "pulses.phase_kernel": Row(lambda tau, s, **kw: pulses.phase_kernel(hahn_echo(tau), s=[s], **kw),
                               {**ECHO, "s": (0.3, UNIT)}, NAMED_TAU),
    "pulses.force_response": Row(lambda tau, **kw: pulses.force_response(hahn_echo(tau), force=FORCE, **kw),
                                 ECHO, NAMED_TAU),
    "pulses.spectral_response": Row(lambda tau, **kw: pulses.spectral_response(hahn_echo(tau), **kw),
                                    {**ECHO, "nu": (2.5, REAL)}, NAMED_TAU),
    "pulses.delta_n_closed_form": Row(lambda **kw: pulses.delta_n_closed_form("carr_purcell2", **kw),
                                      {**COUPLING, **TAU}),
    "pulses.zeta_closed_form": Row(lambda **kw: pulses.zeta_closed_form("carr_purcell2", **kw),
                                   {**COUPLING, **TAU}),
    "pulses.leading_order_row": Row(lambda **kw: pulses.leading_order_row("hahn_echo", **kw),
                                    {"omega": W, **TAU}),
    # dynamics
    "dynamics.branch_states": Row(lambda tau, **kw: dynamics.branch_states(hahn_echo(tau), alpha=0.3j, **kw),
                                  ECHO, NAMED_TAU),
    "dynamics.evolve_state": Row(lambda tau, **kw: dynamics.evolve_state(hahn_echo(tau), alpha=0.5, **kw),
                                 ECHO, NAMED_TAU),
    "dynamics.trajectory": Row(
        lambda tau, **kw: dynamics.trajectory(hahn_echo(tau), spin_branch=1, n_samples=5, **kw), ECHO, NAMED_TAU),
    # witness
    "witness.make_result": Row(witness.make_result, {"w_b": (0.6, POS), "w_en": (0.55, REAL)}),
    "witness.noiseless_moments": Row(witness.noiseless_moments, {
        "lam": (0.5, REAL), "nbar": (0.3, NONNEG), "omega": (1.0, POS), "omega_l": (0.2, REAL),
        "t": (2.0, NONNEG)}),
    "witness.thermal_wb": Row(witness.thermal_wb, {
        "lam": (0.5, REAL), "nbar": (0.3, NONNEG), "omega": (1.0, POS), "omega_l": (0.2, REAL),
        "t": (2.0, NONNEG)}),
    "witness.thermal_wen": Row(witness.thermal_wen, {
        "lam": (0.5, REAL), "nbar": (0.3, NONNEG), "omega": (1.0, POS), "t": (2.0, NONNEG)}),
    "witness.halfperiod_coefficients": Row(witness.halfperiod_coefficients,
                                           {"lam": (0.5, REAL), "nbar": (0.3, NONNEG)}),
    "witness.pulsed_effective_lambda": Row(witness.pulsed_effective_lambda,
                                           {"g": (0.7, REAL), "omega": (1.0, POS), "tau": (1.0, NONNEG)}),
    "witness.bath_deltas": Row(witness.bath_deltas, {
        "lam": (0.5, REAL), "nbar_over_q": (1e-3, NONNEG), "omega": (1.0, POS), "t": (2.0, NONNEG)}),
    # a singular quadrature block (lam large enough) raises DegenerateMomentsError
    "witness.bath_witness": Row(lambda **kw: witness.bath_witness(initial="thermal", **kw), {
        "lam": (0.5, REAL), "nbar": (0.3, NONNEG), "nbar_over_q": (1e-3, NONNEG), "omega": (1.0, POS),
        "omega_l": (0.2, REAL), "t": (2.0, NONNEG)}, raises=(witness.DegenerateMomentsError,)),
    "witness.violation_scan(pulseless)": Row(lambda **kw: _scan(mode="pulseless", **kw), _SCAN_ARGS,
                                             documented=_only_log10_ratio_neginf,
                                             raises=(witness.DegenerateMomentsError,)),
    "witness.violation_scan(pulsed)": Row(lambda **kw: _scan(mode="pulsed", **kw),
                                          {**_SCAN_ARGS, "g": (0.7, REAL), "tau": (1.0, NONNEG)},
                                          documented=_only_log10_ratio_neginf,
                                          raises=(witness.DegenerateMomentsError,)),
    "witness.t_fixed_pulseless": Row(witness.t_fixed_pulseless, {"omega": (1.0, POS)}),
    "witness.max_nbar_for_violation": Row(lambda **kw: witness.max_nbar_for_violation(n_grid=40, **kw), {
        "g": (0.7, POS), "omega": (1.0, POS), "threshold": (1e-3, REAL)}),
    # sensing
    "sensing.NoiseBudget": Row(sensing.NoiseBudget, {
        "projection_var": (0.25, NONNEG), "backaction_var": (0.1, NONNEG), "thermal_var": (0.0, NONNEG),
        "signal_phase_per_force": (0.3, REAL)}),
    "sensing.cooling_factor": Row(sensing.cooling_factor, {"gamma_c": (1e3, POS), "t_c": (1e-4, POS)}),
    # 1/phi^2 is inf where phi^2 is 0, also when it underflows
    "sensing.noise_to_signal": Row(sensing.noise_to_signal, {
        "phi_per_f": (0.5, REAL), "delta_n": (0.3, NONNEG), "xi": (2.0, NONNEG), "n_spins": (3.0, POS),
        "thermal_var": (1e-3, NONNEG)}, documented=lambda r: r == math.inf),
    "sensing.thermal_phase_variance": Row(lambda tau, **kw: sensing.thermal_phase_variance(hahn_echo(tau), **kw),
                                          {**ECHO, "nbar_over_q": (1e-3, NONNEG)}, NAMED_TAU),
    "sensing.force_sql": Row(lambda **kw: sensing.force_sql("carr_purcell2", **kw),
                             {"omega": W, **TAU, "xi": (0.9, NONNEG)}, NAMED_TAU,
                             raises=(sensing.UnboundedCouplingError,)),
    "sensing.optimal_coupling": Row(lambda **kw: sensing.optimal_coupling("carr_purcell2", **kw),
                                    {"omega": W, **TAU, "xi": (0.9, NONNEG), "n_spins": (2.0, POS)}, NAMED_TAU,
                                    raises=(sensing.UnboundedCouplingError,)),
    "sensing.projection_limit_eta": Row(sensing.projection_limit_eta, {
        "mass": (1e-12, POS), "omega": (6e6, POS), "gradient": (1e4, POS), "t2_star": (1e-6, POS),
        "gamma_e": (1.76e11, POS)}),
    "sensing.thermal_limit_eta": Row(sensing.thermal_limit_eta, {
        "mass": (1e-14, POS), "omega": (600.0, POS), "q_factor": (1e6, POS), "temperature": (300.0, NONNEG)}),
    "sensing.sql_gradient": Row(sensing.sql_gradient, {
        "mass": (1.8e-15, POS), "t_between": (3e-4, POS), "tau_precess": (3e-4, POS), "n_spins": (1.0, POS),
        "gamma_e": (1.76e11, POS)}),
    # eta is inf where the signal phase is 0: at coupling 0, or where |T(nu)| underflows
    "sensing.sensitivity_spectrum": Row(
        lambda nu, coupling: sensing.sensitivity_spectrum(PHYS, hahn_echo(1e-3), [nu], coupling=coupling),
        {"nu": (600.0, REAL), "coupling": (1e3, REAL)}, COUPLING_NAMES, documented=lambda r: _only_inf(r.eta)),
    "sensing.force_sensitivity": Row(
        lambda nu, coupling: sensing.force_sensitivity(PHYS, hahn_echo(1e-3), nu, coupling=coupling),
        {"nu": (600.0, REAL), "coupling": (1e3, REAL)}, COUPLING_NAMES, documented=lambda r: _only_inf(r.eta)),
    "sensing.squeezed_rotation": Row(sensing.squeezed_rotation, {"n_spins": (4.0, POS), "zeta": (0.1, NONNEG)}),
    # units
    "units.PhysicalParams(nbar)": Row(lambda **kw: units.PhysicalParams(**{**DEVICE, **kw}), {
        "mass": (1.5e-14, POS), "trap_frequency": (600.0, POS), "gradient": (1e4, NONNEG),
        "gyromagnetic_ratio": (1.76e11, POS), "quality_factor": (1e6, POS), "nbar": (10.0, NONNEG),
        "cooling_rate": (1e3, POS), "cooling_time": (1e-4, POS), "larmor_frequency": (0.0, REAL)}),
    "units.PhysicalParams(temperature)": Row(lambda **kw: units.PhysicalParams(**{**DEVICE, **kw}),
                                             {"temperature": (1e-3, NONNEG)}),
    "units.NaturalParams": Row(_nat, {
        "g": (0.25, NONNEG), "omega": (1.0, POS), "lam": (0.5, NOT_NAN), "nbar": (0.0, NONNEG),
        "gamma": (1e-6, REAL), "x0": (1.0, REAL), "larmor": (0.0, REAL)},
        documented=lambda r: [f for f, v in vars(r).items() if not math.isfinite(v)] == ["lam"]),
    "units.nbar_from_temperature": Row(units.nbar_from_temperature,
                                       {"temperature": (1e-3, NONNEG), "omega": (600.0, POS)}),
    "units.oscillator_length": Row(units.oscillator_length, {"mass": (1.5e-14, POS), "omega": (600.0, POS)}),
    # oracle
    "oracle.suggested_n_max": Row(oracle.suggested_n_max, {"max_alpha_sq": (4.0, NONNEG)}),
    # a coupling kappa = g/omega that overflows is named as kappa
    "oracle.evolve": Row(lambda g, omega: oracle.evolve(oracle.initial_state(0j, 64), _nat(g=g, omega=omega), SEQ),
                         {"g": (0.25, NONNEG), "omega": (1.0, POS)}, {"g": ("g", "kappa"), "omega": ("omega", "kappa")},
                         raises=(CutoffError, ResolutionError)),
    "oracle.witness_moments": Row(lambda nbar: oracle.witness_moments(NAT, SEQ, CFG, nbar=nbar),
                                  {"nbar": (0.5, NONNEG)}),
    "oracle.thermal_trajectories": Row(lambda nbar_over_q: oracle.thermal_trajectories(NAT, SEQ, CFG, nbar_over_q),
                                       {"nbar_over_q": (1e-3, NONNEG)}, raises=(ResolutionError,)),
    "oracle.bath_covariance": Row(lambda nbar_over_q: oracle.bath_covariance(NAT, SEQ, nbar_over_q),
                                  {"nbar_over_q": (1e-3, NONNEG)}, raises=(ResolutionError,)),
    "oracle.gaussian_noise_factor": Row(oracle.gaussian_noise_factor,
                                        {"n_spins": (100.0, REAL), "zeta": (0.01, REAL), "theta": (0.3, REAL)}),
}

# Public functions with a float argument that the table leaves out, and why.
NOT_TABLED = {
    "dynamics.segment_step": "the per-piece step of branch_states, which checks its arguments and result",
    "pulses.segment_index": "an index lookup over knots that pieces and _checked_force check first",
    "units.json_number": "a JSON-number converter; PhysicalParams and the CLI keys check its value",
    "oracle.coherent_vector": "alpha is complex (its own finiteness check)",
}


def _numbers(value):
    """Every number in a result: floats, complex, arrays, and the fields of records and tuples."""
    if value is None or isinstance(value, (str, bool)):
        return []
    if isinstance(value, (int, float, complex, np.number)):
        return [value]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if dataclasses.is_dataclass(value):
        value = tuple(vars(value).values())
    if isinstance(value, (tuple, list)):
        return [n for v in value for n in _numbers(v)]
    raise TypeError(f"no numbers known in a {type(value).__name__}")


def _names_pattern(names) -> str:
    return "|".join(rf"(?<![A-Za-z]){re.escape(n)}(?![A-Za-z])" for n in names)


def check(key: str, arg: str, value: float) -> None:
    row = TABLE[key]
    domain = row.args[arg][1]
    kwargs = {name: spec[0] for name, spec in row.args.items()} | {arg: value}
    call = f"{key}({arg}={value!r})"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # squeezed_rotation's validity warning
            result = row.call(**kwargs)
    except row.raises:
        return
    except ValueError as exc:
        names = row.names.get(arg, (arg,))
        assert re.search(_names_pattern(names), str(exc)), f"{call}: the message {str(exc)!r} names no {names}"
        return
    assert domain.contains(value), f"{call}: accepted an argument that is not {domain.text}"
    bad = [n for n in _numbers(result) if not cmath.isfinite(n)]
    assert not bad or (row.documented is not None and row.documented(result)), \
        f"{call}: returned non-finite {bad[:3]} in {result!r}"[:400]


CASES = [(key, arg) for key, row in TABLE.items() for arg in row.args]


@pytest.mark.parametrize("key,arg", CASES, ids=[f"{k}-{a}" for k, a in CASES])
def test_edge_values(key, arg):
    for value in EDGES:
        check(key, arg, value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), data=st.data())
def test_drawn_values(case, data):
    key, arg = case
    base, domain = TABLE[key].args[arg]
    # near the base, inside the domain; or any float, NaN and inf included
    value = data.draw(st.one_of(
        st.floats(0.5 * abs(base) if base else 0.0, 2.0 * abs(base) if base else 1.0).map(
            lambda x: math.copysign(x, base) if domain is not UNIT else min(x, 1.0)),
        st.floats(),
    ))
    check(key, arg, value)


def test_each_argument_base_point_is_inside_its_domain():
    for key, row in TABLE.items():
        for arg, (base, domain) in row.args.items():
            assert domain.contains(base), f"{key}: base {arg} = {base!r} is not {domain.text}"
        check(key, next(iter(row.args)), row.args[next(iter(row.args))][0])

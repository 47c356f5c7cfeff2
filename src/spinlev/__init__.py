"""Pulsed spin-oscillator toolkit: backaction-evading force sensing,
entanglement-witness evaluation and spin squeezing for a levitated
spin-mechanical system, with brute-force verification oracles."""

from . import constants, dynamics, oracle, pulses, sensing, units, verify, witness
from .dynamics import EntangledState, evolve_state
from .pulses import (
    PulseSequence,
    SequenceKind,
    carr_purcell2,
    hahn_echo,
    make_sequence,
    ramsey,
    residual_displacement,
    spectral_response,
    squeezing_parameter,
)
from .sensing import (
    cooling_factor,
    force_sensitivity,
    force_sql,
    optimal_coupling,
    sensitivity_spectrum,
    squeezed_rotation,
)
from .units import NaturalParams, ParameterError, PhysicalParams, to_natural
from .witness import (
    WitnessCoefficients,
    WitnessResult,
    bath_witness,
    halfperiod_coefficients,
    separable_bound,
    thermal_wb,
    thermal_wen,
    violation_scan,
)

__version__ = "0.1.0"

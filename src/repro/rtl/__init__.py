"""Pure-Python RTL modelling and simulation kernel.

This package is the substrate the reproduction is built on: it plays the role
that VHDL plus a simulator played for the original paper.  It provides
fixed-width values (:class:`Bits`), two-phase signals (:class:`Signal`),
hierarchical components (:class:`Component`), a cycle-accurate simulator
(:class:`Simulator`), an FSM helper and waveform tracing.
"""

from .bits import Bits, bits_for, clog2, mask
from .component import Component, Memory
from .errors import (
    CombinationalLoopError,
    ElaborationError,
    PortError,
    RTLError,
    SimulationError,
    WidthError,
)
from .fsm import FSM
from .signal import REG, WIRE, Signal, SignalBundle, register, wire
from .simulator import COMPILED, FIXPOINT, STRATEGIES, Simulator, pulse
from .trace import Recorder, VCDWriter

__all__ = [
    "Bits",
    "bits_for",
    "clog2",
    "mask",
    "Component",
    "Memory",
    "FSM",
    "Signal",
    "SignalBundle",
    "register",
    "wire",
    "REG",
    "WIRE",
    "Simulator",
    "COMPILED",
    "FIXPOINT",
    "STRATEGIES",
    "pulse",
    "Recorder",
    "VCDWriter",
    "RTLError",
    "WidthError",
    "CombinationalLoopError",
    "ElaborationError",
    "SimulationError",
    "PortError",
]

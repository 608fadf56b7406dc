"""Compiled per-design simulation backend.

``Simulator(strategy="compiled")`` elaborates a design once, statically
analyses every combinational process's read/write sets
(:mod:`~repro.rtl.compile.analyze`), orders the network so one pass settles
it (:mod:`~repro.rtl.compile.schedule`) and emits a specialised module-level
Python function per design (:mod:`~repro.rtl.compile.emit`): slot-indexed
signal access, inlined bit-width masks, fused write+commit, topologically
ordered process bodies.  It is the software analogue of the paper's wrapper
dissolution — the generic scheduler disappears into design-specific
straight-line code.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ...obs import tracing as _obs_tracing
from .analyze import ProcAnalysis, analyze_proc
from .emit import CompiledProgram, CompileReport, emit_program
from .schedule import Schedule, build_schedule


def compile_design(comb_procs: Sequence[Callable],
                   seq_procs: Sequence[Callable],
                   max_settle: int = 64) -> CompiledProgram:
    """Compile a design's processes into a specialised settle/cycle pair.

    Each pipeline stage runs under its own child span ("analyze" /
    "schedule" / "emit") so traced compiles show where elaboration time
    goes; with tracing disabled the spans are no-op singletons.
    """
    with _obs_tracing.span("analyze", procs=len(comb_procs)):
        analyses = [analyze_proc(proc) for proc in comb_procs]
    with _obs_tracing.span("schedule"):
        schedule = build_schedule(analyses)
    with _obs_tracing.span("emit"):
        return emit_program(schedule, comb_procs, seq_procs, max_settle)


__all__ = [
    "analyze_proc",
    "build_schedule",
    "compile_design",
    "emit_program",
    "CompiledProgram",
    "CompileReport",
    "ProcAnalysis",
    "Schedule",
]

"""Compiled per-design simulation backend.

``Simulator(strategy="compiled")`` elaborates a design once, statically
analyses every combinational process's read/write sets
(:mod:`~repro.rtl.compile.analyze`), orders the network so one pass settles
it (:mod:`~repro.rtl.compile.schedule`) and emits a specialised module-level
Python function per design (:mod:`~repro.rtl.compile.emit`): slot-indexed
signal access, inlined bit-width masks, fused write+commit, topologically
ordered process bodies.  The processes it cannot dissolve — every
sequential process and every combinational call unit — run as copies of
their own bodies specialised onto the same slots, and the clock edge
commits their writes with emitted lines.  It is the software analogue of
the paper's wrapper dissolution — the generic scheduler disappears into
design-specific straight-line code.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ...obs import tracing as _obs_tracing
from .analyze import ProcAnalysis, analyze_proc
from .emit import CompiledProgram, CompileReport, Emitter
from .schedule import Schedule, build_schedule


def compile_design(comb_procs: Sequence[Callable],
                   seq_procs: Sequence[Callable],
                   max_settle: int = 64) -> CompiledProgram:
    """Compile a design's processes into a specialised settle/cycle pair.

    Each pipeline stage runs under its own child span ("analyze" /
    "schedule" / "emit") so traced compiles show where elaboration time
    goes; with tracing disabled the spans are no-op singletons.
    """
    with _obs_tracing.span("analyze",
                           procs=len(comb_procs) + len(seq_procs)):
        memo: dict = {}
        analyses = [analyze_proc(proc, memo=memo) for proc in comb_procs]
        seq_analyses = [analyze_proc(proc, sequential=True, memo=memo)
                        for proc in seq_procs]
    with _obs_tracing.span("schedule"):
        emitter = Emitter(build_schedule(analyses), comb_procs, seq_analyses,
                          max_settle)
    # The emitter holds the only references now, so it can free the
    # analyses before compiling.
    del analyses, seq_analyses, memo
    with _obs_tracing.span("emit"):
        return emitter.build()


__all__ = [
    "analyze_proc",
    "build_schedule",
    "compile_design",
    "CompiledProgram",
    "CompileReport",
    "Emitter",
    "ProcAnalysis",
    "Schedule",
]

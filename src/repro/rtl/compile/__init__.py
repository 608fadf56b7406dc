"""Compiled per-design simulation backend.

``Simulator(strategy="compiled")`` elaborates a design once, statically
analyses every combinational process's read/write sets
(:mod:`~repro.rtl.compile.analyze`), orders the network so one pass settles
it (:mod:`~repro.rtl.compile.schedule`) and emits a specialised module-level
Python function per design (:mod:`~repro.rtl.compile.emit`): slot-indexed
signal access, inlined bit-width masks, fused write+commit, topologically
ordered process bodies.  The processes it cannot dissolve — every
sequential process and every combinational call unit — are spliced into
that one function as copies of their own bodies specialised onto the same
slots, with an FSM's own ``goto``/``stay``, memory stores and the bodies
of their statement-position method calls inlined, and the clock edge
commits their writes with emitted lines: a simulated cycle is one Python
frame.  It is the software analogue of the paper's wrapper dissolution —
the generic scheduler disappears into design-specific straight-line code.

Compilation is paid once per design *structure* per process, whatever
its sizes.  Every read the analyser makes of instance state goes through
a :class:`~repro.rtl.compile.guard.Recorder`, whose log becomes the
design's :class:`~repro.rtl.compile.guard.Guard`; the emitter records its
slot tables as handles into that log.  The guard's *decision* facts shape
the emitted code; its *value* facts — masks, memory depths, instance ints
such as ``self.depth`` — only become integer literals, which the emitter
compiles as placeholders (a :class:`~repro.rtl.compile.emit.Template`).
The template, report, guard, tables and the recording design's values and
source form a *recipe*, kept in a bounded in-process LRU keyed by the
processes' code objects and ``max_settle``.  A later design with the same
key replays the guard's decisions on its own objects; when they all
match, the template is loaded with that design's values written into its
constants, against slot tables of its signals, memories and processes,
and analysis, scheduling, emission and ``compile()`` are skipped.  A cold
compile loads through the same substitution.
"""

from __future__ import annotations

import threading
import types
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...obs import tracing as _obs_tracing
from ...obs.metrics import REGISTRY
from .analyze import ProcAnalysis, analyze_proc
from .emit import (CompiledProgram, CompileReport, EmittedModule, Emitter,
                   Template)
from .guard import Guard, Recorder, Replay
from .schedule import Schedule, build_schedule

#: Recipes kept per process; the least recently used key loses its oldest.
RECIPE_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class _Recipe:
    """One compiled design structure, loadable against any design whose
    guard replays, with that design's values written in."""

    guard: Guard
    #: Slot table name -> handles (into the guard's objects) it binds.
    tables: Dict[str, Tuple[int, ...]]
    template: Template
    report: CompileReport

    def bind(self, replay: Replay) -> Optional[CompiledProgram]:
        matched = replay.match(self.guard)
        if matched is None:
            return None
        objects, values = matched
        settle, cycle = self.template.load(values, {
            name: [objects[handle] for handle in handles]
            for name, handles in self.tables.items()})
        return CompiledProgram(settle=settle, cycle=cycle,
                               source=self.template.source(values),
                               report=self.report.copy(), cached=True)


#: Recipe key -> its recipes, newest first; keys in least-recent-use order.
_RECIPES: "OrderedDict[tuple, List[_Recipe]]" = OrderedDict()
_RECIPES_LOCK = threading.Lock()


def _recipe_key(comb_procs: Sequence[Callable], seq_procs: Sequence[Callable],
                max_settle: int) -> Optional[tuple]:
    """``(comb code objects, seq code objects, max_settle)``, or None when a
    process has no code object."""
    codes = tuple(getattr(proc, "__code__", None)
                  for proc in (*comb_procs, *seq_procs))
    if not all(isinstance(code, types.CodeType) for code in codes):
        return None
    return codes[:len(comb_procs)], codes[len(comb_procs):], max_settle


def _lookup(key: tuple) -> Tuple[_Recipe, ...]:
    with _RECIPES_LOCK:
        recipes = _RECIPES.get(key)
        if recipes is None:
            return ()
        _RECIPES.move_to_end(key)
        return tuple(recipes)


def _store(key: tuple, recorder: Recorder, module: EmittedModule) -> None:
    if not recorder.guardable:
        return
    tables = {}
    for name, objects in module.tables.items():
        handles = tuple(recorder.handle(obj) for obj in objects)
        if None in handles:
            return
        tables[name] = handles
    recipe = _Recipe(guard=recorder.guard(module.refs, module.pinned),
                     tables=tables, template=module.template,
                     report=module.report.copy())
    with _RECIPES_LOCK:
        _RECIPES.setdefault(key, []).insert(0, recipe)
        _RECIPES.move_to_end(key)
        while sum(map(len, _RECIPES.values())) > RECIPE_CACHE_SIZE:
            oldest = next(iter(_RECIPES))
            _RECIPES[oldest].pop()
            if not _RECIPES[oldest]:
                del _RECIPES[oldest]


def _clear_recipes() -> None:
    """Empty the recipe cache (for tests that need a cold compile)."""
    with _RECIPES_LOCK:
        _RECIPES.clear()


def compile_design(comb_procs: Sequence[Callable],
                   seq_procs: Sequence[Callable],
                   max_settle: int = 64) -> CompiledProgram:
    """Compile a design's processes into a specialised settle/cycle pair.

    A design whose structure was compiled before in this process is served
    from the recipe cache under one "replay" child span.  Otherwise each
    pipeline stage runs under its own child span ("analyze" / "schedule" /
    "emit") so traced compiles show where elaboration time goes; with
    tracing disabled the spans are no-op singletons.
    """
    roots = [*comb_procs, *seq_procs]
    key = _recipe_key(comb_procs, seq_procs, max_settle)
    recipes = _lookup(key) if key is not None else ()
    if recipes:
        with _obs_tracing.span("replay", recipes=len(recipes)):
            replay = Replay(roots)
            for recipe in recipes:
                program = recipe.bind(replay)
                if program is not None:
                    REGISTRY.inc("compile_recipe_hits")
                    return program
    REGISTRY.inc("compile_recipe_misses")
    recorder = Recorder(roots)
    with _obs_tracing.span("analyze", procs=len(roots)):
        analyses = [analyze_proc(proc, recorder=recorder)
                    for proc in comb_procs]
        seq_analyses = [analyze_proc(proc, sequential=True, recorder=recorder)
                        for proc in seq_procs]
    with _obs_tracing.span("schedule"):
        emitter = Emitter(build_schedule(analyses), comb_procs, seq_analyses,
                          max_settle, recorder)
    # The emitter holds the only references now, so it can free the
    # analyses before compiling.
    del analyses, seq_analyses
    with _obs_tracing.span("emit"):
        module = emitter.build()
        template = module.template
        settle, cycle = template.load(template.values, module.tables)
    if key is not None:
        _store(key, recorder, module)
    return CompiledProgram(settle=settle, cycle=cycle, source=template.text,
                           report=module.report)


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

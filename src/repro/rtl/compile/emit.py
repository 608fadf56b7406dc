"""Source emission for the compiled settle strategy.

Given a :class:`~repro.rtl.compile.schedule.Schedule`, this module generates
one specialised Python module per design:

* transpiled statements are rewritten onto *slots* — signals and memories
  become pre-bound local names (``_s12``, ``_m3``) so the hot path performs
  no dict or attribute-chain lookups beyond a single C-level slot access;
* bit-width masks are inlined as integer literals at every assignment, doing
  at code-generation time what ``Signal.next`` otherwise does per write;
* commits are fused into the writes (``_s12._value = _s12._next = ...``)
  because the topological order guarantees no reader ran earlier;
* cyclic groups iterate with per-signal change detection until stable;
* opaque processes demote the whole settle to a guarded convergence loop —
  never wrong, merely slower;
* every other process with readable source — each sequential process and
  each combinational *call unit* (a body settle must call whole) — is
  spliced into the kernel as a specialised copy of its own body: resolved
  ``sig.value`` / ``sig.next`` reads become slot reads, ``sig.next = v``
  becomes ``_sN._next = int(v) & MASK`` (no ``int()`` where ``v`` is an
  int by construction), an FSM's own ``fsm.is_in("S")`` an integer
  compare, its ``fsm.goto("S")`` a write of S's code to the state slot
  plus one store into the FSM's transition record (``_fK``), its
  ``fsm.stay()`` a slot copy (each only with a literal state name), a
  memory read ``_mN._data[int(i) % DEPTH]`` and a store into a memory
  whose class keeps ``Memory.__setitem__`` ``_mN._data[int(i) % DEPTH] =
  int(v) & MASK`` (a subclass's own ``__getitem__`` or ``__setitem__``
  stays a call).  Everything else stays the process's own Python.

The kernel is one function, so a simulated cycle is one Python frame:
``cycle()`` runs every sequential body inline, commits the writes they own
with one ``_sN._value = _sN._next`` line each, then runs the settle inline,
each call unit's body where the schedule calls it; ``settle()`` is the same
code object entered with ``_edge`` false.  The body of each
statement-position method call in a spliced body
(``self._complete_access()``, ``self._account(1)``) is spliced in its
place too, its arguments bound to its renamed parameters.  Four rules keep
a splice exact.  Locals are renamed per body (``_q0_count``,
``_q1h0_address`` for the first helper spliced into ``_q1``).  A
``return`` becomes structured control flow: a body that returns early runs
once inside ``while True:``, each ``return`` a ``break``.  Free names are
bound by :func:`_bind` to each process's own closure cells, and a module
global a process reads is read live from its own module through
``_G<tag>``.  Every write a splice owns is committed by ``cycle()``.  A
body the splice cannot take — a ``return`` inside a loop, a helper that
relies on a default argument, closes over names or reads a module global,
a process without readable source — stays a call, and the
:class:`CompileReport` says why.  Writes the rewrite does not own (a kept
call, an FSM subclass's own ``goto``) still go through ``Signal.next`` and
the simulator's ``_written`` list.

The generated source is kept on the simulator (``sim.compiled_source``) so
it can be inspected, diffed and unit-tested like any other artefact.

The module names no design object: it reads its signals, memories, FSMs
and processes from the slot tables ``_SIGS``/``_MEMS``/``_FSMS``/
``_PROCS``/``_SEQS`` (:meth:`Template.load` binds them), and everything
it bakes — masks, memory depths and types, FSM codes and methods, the
methods it splices, literal notes — is something the analyser's
:class:`~repro.rtl.compile.guard.Recorder` logged.  A *value* (a mask, a
memory depth, a literal note of an instance int that is a value fact) is
compiled as a placeholder int above every other constant of the module,
and :meth:`Template.load` writes each design's own values into the code
objects' constants; a value the emitter folds into another constant is
*pinned* instead (written in, and compared by the guard).  After
``compile()`` every placeholder left in the text must still be a
constant of some code object, or the compile raises: CPython folded it
where the emitter should have pinned it.  So one compiled module serves
every design whose guard's decisions replay (see :mod:`repro.rtl.compile`);
the ``_uid`` order of call-unit commits only orders independent
assignments and needs no guard.
"""

from __future__ import annotations

import ast
import builtins
import dis
import os
import re
import types
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..component import Memory
from ..errors import CombinationalLoopError, RTLError
from ..signal import Signal
from .analyze import FsmStep, Inline, ProcAnalysis
from .guard import _MISSING as _UNBOUND, Recorder
from .schedule import Schedule, Unit


@dataclass
class CompileReport:
    """What the compiler did with a design (for tests and debugging)."""

    n_procs: int
    n_transpiled_procs: int
    n_call_procs: int
    n_opaque_procs: int
    n_units: int
    n_cyclic_groups: int
    cyclic_group_sizes: List[int]
    guarded: bool
    opaque_reasons: List[str]
    #: Sequential processes plus combinational call units whose
    #: specialised bodies are spliced into the generated kernel.
    n_specialised_procs: int = 0
    #: Processes the generated code calls as written (opaque ones included).
    n_generic_procs: int = 0
    #: ``"<qualname>: <reason>"`` for every generic process.
    generic_reasons: List[str] = field(default_factory=list)
    #: Statement-position method calls whose body is spliced in their place.
    n_spliced_calls: int = 0
    #: ``"<qualname>: <reason>"`` for every such call left a call.
    kept_calls: List[str] = field(default_factory=list)

    def copy(self) -> "CompileReport":
        """A copy whose lists the caller may change freely."""
        return replace(self, cyclic_group_sizes=list(self.cyclic_group_sizes),
                       opaque_reasons=list(self.opaque_reasons),
                       generic_reasons=list(self.generic_reasons),
                       kept_calls=list(self.kept_calls))

    def summary(self) -> str:
        return (f"{self.n_procs} comb procs: {self.n_transpiled_procs} "
                f"dissolved, {self.n_call_procs} called, "
                f"{self.n_opaque_procs} opaque; {self.n_units} units, "
                f"{self.n_cyclic_groups} cyclic groups"
                f"{' (guarded)' if self.guarded else ''}; "
                f"{self.n_specialised_procs} procs specialised, "
                f"{self.n_generic_procs} generic; {self.n_spliced_calls} "
                f"helper calls spliced, {len(self.kept_calls)} kept")


@dataclass
class CompiledProgram:
    """The executable artefact: settle/cycle plus its provenance."""

    settle: Callable
    cycle: Callable
    source: str
    report: CompileReport
    #: True when the program came from the recipe cache.
    cached: bool = False


class _Fill:
    """Where placeholders sit in one code object's constants: each slot is
    ``(position, value index)`` or ``(position, fill of a nested code
    object)``."""

    __slots__ = ("code", "slots")

    def __init__(self, code: types.CodeType, slots: Sequence[tuple]) -> None:
        self.code = code
        self.slots = tuple(slots)

    def apply(self, values: Sequence[int]) -> types.CodeType:
        consts = list(self.code.co_consts)
        for position, hole in self.slots:
            consts[position] = values[hole] if type(hole) is int \
                else hole.apply(values)
        return self.code.replace(co_consts=tuple(consts))


def _fill(code: types.CodeType, base: int, index: Dict[int, int],
          met: Set[int]) -> Optional[_Fill]:
    """The fill of ``code`` for the placeholders ``index`` maps (placeholder
    -> value index), or None when none of them occurs in it.  Every int at
    or above ``base`` it meets goes to ``met``."""
    slots: List[tuple] = []
    for position, const in enumerate(code.co_consts):
        if isinstance(const, types.CodeType):
            nested = _fill(const, base, index, met)
            if nested is not None:
                slots.append((position, nested))
        elif isinstance(const, int) and abs(const) >= base:
            met.add(const)
            if const in index:
                slots.append((position, index[const]))
    return _Fill(code, slots) if slots else None


@dataclass(frozen=True, eq=False)
class Template:
    """A compiled module whose value facts are placeholders.

    ``code`` is the compiled module; ``fill`` says where the placeholders
    sit in it (None: nowhere).  ``text`` is its source with the recording
    design's ``values`` written in, and ``spans`` says where each value
    sits in it: ``(start, end, value index)``.  :meth:`load` writes one
    design's values into the code objects' constants, so the kernel runs
    the bytecode a compile of that design's own literals would, and
    :meth:`source` writes them into the text.
    """

    code: types.CodeType
    fill: Optional[_Fill]
    text: str
    values: Tuple[int, ...]
    spans: Tuple[Tuple[int, int, int], ...]

    def source(self, values: Tuple[int, ...]) -> str:
        """The source with ``values`` written in (``text`` itself for the
        recording design's values)."""
        if values == self.values:
            return self.text
        pieces, at = [], 0
        for start, end, index in self.spans:
            pieces += (self.text[at:start], str(values[index]))
            at = end
        pieces.append(self.text[at:])
        return "".join(pieces)

    def load(self, values: Sequence[int],
             tables: Dict[str, List[object]]) -> Tuple[Callable, Callable]:
        """Exec the module, with ``values`` written in, against one
        design's slot tables; returns its ``(settle, cycle)``.  The module
        holds no design object, so a recipe's module loads against every
        design its guard accepts."""
        namespace: Dict[str, object] = dict(tables)
        namespace.update(_bind=_bind,
                         CombinationalLoopError=CombinationalLoopError)
        exec(self.code if self.fill is None else self.fill.apply(values),
             namespace)
        return namespace["settle"], namespace["cycle"]


@dataclass
class EmittedModule:
    """One compile's output before it is loaded: the template, what its
    values stand for, the report and the slot tables they bind."""

    template: Template
    #: What each value of the template stands for (see
    #: :class:`~repro.rtl.compile.guard.Guard`).
    refs: Tuple[Tuple[str, int], ...]
    #: The value refs folded into other constants.
    pinned: Set[Tuple[str, int]]
    report: CompileReport
    #: ``_SIGS``/``_MEMS``/``_FSMS``/``_PROCS``/``_SEQS`` -> the objects
    #: bound.
    tables: Dict[str, List[object]]


class _Slots:
    """Stable slot numbering for every object the generated code touches."""

    def __init__(self) -> None:
        self.signals: Dict[Signal, str] = {}
        self.memories: Dict[Memory, str] = {}
        #: ``id(fsm)`` -> slot name (an FSM subclass may define ``__eq__``).
        self.fsms: Dict[int, str] = {}
        self.procs: Dict[int, str] = {}
        self._sig_objects: List[Signal] = []
        self._mem_objects: List[Memory] = []
        self.fsm_objects: List[object] = []
        self._proc_objects: List[Callable] = []

    def signal(self, sig: Signal) -> str:
        name = self.signals.get(sig)
        if name is None:
            name = f"_s{len(self._sig_objects)}"
            self.signals[sig] = name
            self._sig_objects.append(sig)
        return name

    def memory(self, mem: Memory) -> str:
        name = self.memories.get(mem)
        if name is None:
            name = f"_m{len(self._mem_objects)}"
            self.memories[mem] = name
            self._mem_objects.append(mem)
        return name

    def fsm(self, fsm) -> str:
        name = self.fsms.get(id(fsm))
        if name is None:
            name = f"_f{len(self.fsm_objects)}"
            self.fsms[id(fsm)] = name
            self.fsm_objects.append(fsm)
        return name

    def proc(self, index: int, func: Callable) -> str:
        name = self.procs.get(index)
        if name is None:
            name = f"_p{len(self._proc_objects)}"
            self.procs[index] = name
            self._proc_objects.append(func)
        return name


def _bits(value: Any) -> int:
    """The bit length of the largest int in ``value``, searching lists,
    tuples and code objects' constants."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, types.CodeType):
        value = value.co_consts
    if isinstance(value, (tuple, list)):
        return max(map(_bits, value), default=0)
    return 0


class _Holes:
    """The values a module bakes in as literals, as placeholders.

    ``("_mask", handle)`` and ``("depth", handle)`` name a signal's or
    memory's attribute, ``("fact", index)`` an ``attr`` value fact.  Each
    value becomes a placeholder int ``base + n``, above every other int the
    module can hold: ``base`` clears, by 64 bits, every constant of the
    process code, every value the recorder read, every memory depth, and
    the 128-bit results CPython's constant folding stops at.  :meth:`pin`
    writes a value back where the emitter folds it into another constant;
    the guard then compares it.
    """

    def __init__(self, recorder: Recorder, codes: Iterable[types.CodeType],
                 max_settle: int) -> None:
        self.recorder = recorder
        self.value_facts = recorder.value_facts()
        # A recorded int can become a literal, and so can the element of
        # a one-element scan; a container's other elements cannot (and a
        # stimulus queue may be long).
        bits = max(128, _bits(max_settle), _bits(tuple(codes)),
                   _bits([value for value in recorder.memo.values()
                          if isinstance(value, int)
                          or (type(value) is list and len(value) == 1)]),
                   _bits([obj.depth for obj in recorder.objects
                          if isinstance(obj, Memory)]))
        self.base = 1 << (bits + 64)
        self.refs: List[Tuple[str, int]] = []
        self.values: List[int] = []
        self.index: Dict[Tuple[str, int], int] = {}
        self.pinned: Set[Tuple[str, int]] = set()

    def of(self, obj: Any, attr: str) -> ast.Constant:
        """``obj``'s ``_mask`` or ``depth``; pinned unless a plain int."""
        value = getattr(obj, attr)
        handle = self.recorder.handle(obj)
        if handle is None:
            return ast.Constant(value=value)
        if type(value) is not int:
            self.pinned.add((attr, handle))
            return ast.Constant(value=value)
        return self._placeholder((attr, handle), value)

    def fact(self, index: Optional[int], value: Any) -> ast.Constant:
        """A literal note: a placeholder when the recorder's fact ``index``
        is a value fact (whose value is a plain int)."""
        if index not in self.value_facts:
            return ast.Constant(value=value)
        return self._placeholder(("fact", index), value)

    def _placeholder(self, ref: Tuple[str, int], value: int) -> ast.Constant:
        number = self.index.get(ref)
        if number is None:
            number = self.index[ref] = len(self.refs)
            self.refs.append(ref)
            self.values.append(value)
        return ast.Constant(value=self.base + number)

    def pin(self, node: ast.expr) -> ast.expr:
        """``node``, with its value written in when it is a placeholder."""
        if isinstance(node, ast.Constant) and type(node.value) is int \
                and node.value >= self.base:
            number = node.value - self.base
            self.pinned.add(self.refs[number])
            return ast.Constant(value=self.values[number])
        return node


def _folds(node: ast.expr) -> bool:
    """True when CPython folds ``node`` into one constant."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _folds(node.operand)
    if isinstance(node, ast.BinOp):
        return _folds(node.left) and _folds(node.right)
    return False


class _Transpiler(ast.NodeTransformer):
    """Rewrite analysed code onto slot-indexed signal access.

    ``write`` is the form a resolved ``sig.next = v`` takes:

    * ``"fused"`` — a dissolved statement in topological order: write and
      commit at once;
    * ``"guarded"`` — a dissolved statement in a converging group: commit
      and flag only on change;
    * ``"next"`` — a body spliced into the kernel: ``_sN._next = int(v) &
      MASK``, committed by the caller.  This form rewrites only slot
      accesses, stores into a memory that keeps ``Memory.__setitem__``, an
      FSM's own ``is_in``/``goto``/``stay`` on a literal state name and the
      statement-position method calls ``emitter`` splices; each name in
      ``names`` becomes its entry (a renamed local or free name, or a
      literal argument), and constants, bare signal objects and every
      other name stay the body's own Python.
    """

    def __init__(self, analysis: ProcAnalysis, slots: _Slots, holes: _Holes,
                 proc_tag: str, write: str,
                 emitter: Optional["Emitter"] = None,
                 names: Optional[Dict[str, ast.expr]] = None) -> None:
        self.analysis = analysis
        self.notes = analysis.notes
        self.slots = slots
        self.holes = holes
        self.proc_tag = proc_tag
        self.write = write
        self.specialise = write == "next"
        self.emitter = emitter
        self.names = names or {}
        self.temp_counter = 0
        #: Helper calls spliced into this body so far.
        self.helpers = 0
        #: Slot names the rewritten code uses.
        self.used: Set[str] = set()
        #: Signals whose ``.next`` the rewritten code writes (``"next"``).
        self.written: Set[Signal] = set()

    # -- helpers ---------------------------------------------------------------

    def _slot(self, obj) -> str:
        name = (self.slots.signal(obj) if isinstance(obj, Signal)
                else self.slots.memory(obj) if isinstance(obj, Memory)
                else self.slots.fsm(obj))
        self.used.add(name)
        return name

    def _slot_attr(self, sig: Signal, attr: str = "_value",
                   ctx: ast.expr_context = None) -> ast.Attribute:
        return ast.Attribute(value=ast.Name(id=self._slot(sig), ctx=ast.Load()),
                             attr=attr, ctx=ctx or ast.Load())

    def _mangle(self, name: str) -> str:
        return f"_L{self.proc_tag}_{name}"

    def _binop(self, left: ast.expr, op: ast.operator,
               right: ast.expr) -> ast.BinOp:
        """``left op right``, with the values written in that CPython would
        fold away."""
        if _folds(left) and _folds(right):
            left, right = self.holes.pin(left), self.holes.pin(right)
        return ast.BinOp(left=left, op=op, right=right)

    def _mask(self, value: ast.expr, obj) -> ast.expr:
        """``value & MASK`` with ``obj``'s mask.  A constant folds here
        (zero whatever the mask); any other value CPython folds gets the
        mask written in, so it folds against the design's own mask."""
        mask = self.holes.of(obj, "_mask")
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            constant = int(self.holes.pin(value).value)
            if constant:
                constant &= self.holes.pin(mask).value
            return ast.Constant(value=constant)
        if _folds(value):
            value, mask = self.holes.pin(value), self.holes.pin(mask)
        return ast.BinOp(left=value, op=ast.BitAnd(), right=mask)

    # -- expressions -----------------------------------------------------------

    def visit_Name(self, node: ast.Name):
        if self.specialise:
            replacement = self.names.get(node.id)
            if isinstance(replacement, ast.Name):
                return ast.Name(id=replacement.id, ctx=node.ctx)
            if isinstance(replacement, ast.Subscript):  # a module global
                return ast.Subscript(
                    value=ast.Name(id=replacement.value.id, ctx=ast.Load()),
                    slice=ast.Constant(value=node.id), ctx=node.ctx)
            if replacement is not None:  # a literal argument
                return ast.Constant(value=replacement.value)
            return node
        noted = self.notes.get(id(node), _MISSING)
        if noted is not _MISSING:
            if isinstance(noted, Signal):
                return self._slot_attr(noted)
            if _is_const(noted):
                return ast.Constant(value=noted)
        if node.id in self.analysis.local_names:
            return ast.Name(id=self._mangle(node.id), ctx=node.ctx)
        return node

    def visit_Attribute(self, node: ast.Attribute):
        noted = self.notes.get(id(node), _MISSING)
        if isinstance(noted, Signal) and (not self.specialise or (
                node.attr in ("value", "next")
                and isinstance(node.ctx, ast.Load))):
            return self._slot_attr(noted,
                                   "_next" if node.attr == "next" else "_value")
        if not self.specialise and noted is not _MISSING and _is_const(noted):
            return self.holes.fact(self.analysis.literals.get(id(node)), noted)
        return self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp):
        self.generic_visit(node)
        return self._binop(node.left, node.op, node.right)

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        if _folds(node.operand):
            node.operand = self.holes.pin(node.operand)
        return node

    def visit_Subscript(self, node: ast.Subscript):
        noted = self.notes.get(id(node), _MISSING)
        if isinstance(noted, Memory) and isinstance(node.ctx, ast.Load):
            index = self.visit(node.slice)
            slot = ast.Name(id=self._slot(noted), ctx=ast.Load())
            # A subclass's own ``__getitem__`` stays a call, as its
            # ``__setitem__`` does; the memory's type is a guard fact.
            if type(noted).__getitem__ is not Memory.__getitem__:
                return ast.Subscript(value=slot, slice=index, ctx=node.ctx)
            data = ast.Attribute(value=slot, attr="_data", ctx=ast.Load())
            if self.specialise:
                index = _as_int(index)
            wrapped = self._binop(index, ast.Mod(),
                                  self.holes.of(noted, "depth"))
            return ast.Subscript(value=data, slice=wrapped, ctx=node.ctx)
        if not self.specialise and noted is not _MISSING:
            if isinstance(noted, Signal):
                return self._slot_attr(noted)
            if _is_const(noted):
                return ast.Constant(value=noted)
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        noted = self.notes.get(id(node), _MISSING)
        if isinstance(noted, tuple) and len(noted) == 2 \
                and isinstance(noted[0], Signal):
            state_sig, code = noted  # fsm.is_in("NAME")
            return ast.Compare(left=self._slot_attr(state_sig),
                               ops=[ast.Eq()],
                               comparators=[ast.Constant(value=code)])
        if isinstance(noted, Signal) and not self.specialise:
            return self._slot_attr(noted)
        return self.generic_visit(node)

    # -- statements ------------------------------------------------------------

    def visit_Expr(self, node: ast.Expr):
        step = self.notes.get(id(node.value))
        if self.specialise:
            if isinstance(step, FsmStep):
                return self._fsm_step(step)
            if isinstance(step, Inline):
                spliced = self.emitter.splice_call(step, node.value, self)
                if spliced is not None:
                    return spliced
        # Bare reads (sensitivity anchors) schedule dependencies but emit no
        # runtime work in a dissolved statement.
        transformed = self.visit(node.value)
        if not self.specialise and isinstance(
                transformed, (ast.Attribute, ast.Constant, ast.Name)):
            return None
        return ast.Expr(value=transformed)

    def _fsm_step(self, step: FsmStep) -> List[ast.stmt]:
        """``fsm.goto("S")``: ``_sN._next = CODE`` and one transition
        record, ``_fK[_sN._value, CODE] = None``; ``fsm.stay()``:
        ``_sN._next = _sN._value``."""
        state = step.state
        self.written.add(state)
        target = self._slot_attr(state, "_next", ast.Store())
        if step.code is None:
            return [ast.Assign(targets=[target], value=self._slot_attr(state),
                               lineno=0)]
        record = ast.Subscript(
            value=ast.Name(id=self._slot(step.fsm), ctx=ast.Load()),
            slice=ast.Tuple(elts=[self._slot_attr(state),
                                  ast.Constant(value=step.code)],
                            ctx=ast.Load()),
            ctx=ast.Store())
        return [ast.Assign(targets=[target],
                           value=self._mask(ast.Constant(value=step.code),
                                            state),
                           lineno=0),
                ast.Assign(targets=[record], value=ast.Constant(value=None),
                           lineno=0)]

    def _memory_store(self, mem: Memory, target: ast.Subscript,
                      value: ast.expr) -> ast.Assign:
        """``mem[i] = v`` as ``_mN._data[int(i) % DEPTH] = int(v) & MASK``,
        the coercions ``Memory.__setitem__`` applies.  It does not call
        ``notify_memory``: the dirty mark that sets is dead here, because
        every settle ends with ``sim._dirty = False`` and ``cycle()``
        always settles after the clock edge.  ``_data`` is indexed
        through the memory slot, because ``Memory.reset`` rebinds it."""
        value = self._mask(_as_int(self.visit(value)), mem)
        index = self._binop(_as_int(self.visit(target.slice)), ast.Mod(),
                            self.holes.of(mem, "depth"))
        data = ast.Attribute(value=ast.Name(id=self._slot(mem), ctx=ast.Load()),
                             attr="_data", ctx=ast.Load())
        return ast.Assign(targets=[ast.Subscript(value=data, slice=index,
                                                 ctx=ast.Store())],
                          value=value, lineno=0)

    def visit_Assign(self, node: ast.Assign):
        target = node.targets[0]
        noted = self.notes.get(id(target), _MISSING) \
            if isinstance(target, (ast.Attribute, ast.Subscript)) else _MISSING
        # A subclass's own ``__setitem__`` stays a call; the memory's type
        # is a guard fact, so a cached recipe keeps this decision exact.
        if self.specialise and isinstance(noted, Memory) \
                and type(noted).__setitem__ is Memory.__setitem__ \
                and isinstance(target, ast.Subscript) and len(node.targets) == 1:
            return self._memory_store(noted, target, node.value)
        if not isinstance(noted, Signal) or len(node.targets) > 1 \
                or not isinstance(target, ast.Attribute):
            return self.generic_visit(node)
        value = self.visit(node.value)
        if self.specialise:
            self.written.add(noted)
            return ast.Assign(targets=[self._slot_attr(noted, "_next",
                                                       ast.Store())],
                              value=self._mask(_as_int(value), noted),
                              lineno=0)
        masked = self._mask(value, noted)
        slot = self._slot(noted)
        if self.write == "fused":
            # Fused write+commit: topological order guarantees no earlier
            # unit wanted the old value.
            return ast.Assign(targets=[self._slot_attr(noted, "_value",
                                                       ast.Store()),
                                       self._slot_attr(noted, "_next",
                                                       ast.Store())],
                              value=masked, lineno=0)
        temp = f"_v{self.proc_tag}_{self.temp_counter}"
        self.temp_counter += 1
        return _parse_stmts(
            f"{temp} = {ast.unparse(masked)}\n"
            f"{slot}._next = {temp}\n"
            f"if {slot}._value != {temp}:\n"
            f"    {slot}._value = {temp}\n"
            f"    _chg = True\n")


_MISSING = object()


def _is_const(obj) -> bool:
    return obj is None or isinstance(obj, (int, bool, str))


#: A signal, memory or FSM slot name.
_SLOT_NAME = re.compile(r"_[smf]\d+\Z")

#: Names a spliced body may use only renamed: the generated code's own
#: names all start so.
_GENERATED_NAME = re.compile(r"_[A-Za-z]")

#: Operators whose result is an int whenever both operands are.
_INT_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.BitAnd,
            ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)


def _is_int(node: ast.expr) -> bool:
    """True when ``node`` evaluates to an int (or bool) whatever the slot
    values are, so ``int()`` would not change it."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int)
    if isinstance(node, ast.Attribute):  # a signal slot
        return (node.attr in ("_value", "_next")
                and isinstance(node.value, ast.Name)
                and _SLOT_NAME.match(node.value.id) is not None)
    if isinstance(node, ast.Subscript):  # a memory word
        data = node.value
        return (isinstance(data, ast.Attribute) and data.attr == "_data"
                and isinstance(data.value, ast.Name)
                and _SLOT_NAME.match(data.value.id) is not None)
    if isinstance(node, ast.IfExp):
        return _is_int(node.body) and _is_int(node.orelse)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, _INT_OPS) and _is_int(node.left)
                and _is_int(node.right))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.Not) or _is_int(node.operand)
    if isinstance(node, (ast.BoolOp, ast.Compare)):
        operands = node.values if isinstance(node, ast.BoolOp) \
            else [node.left, *node.comparators]
        return all(map(_is_int, operands))
    return False


def _as_int(node: ast.expr) -> ast.expr:
    """``int(node)``, as the ``Signal.next`` setter and a ``Memory`` index
    coerce, unless ``node`` is an int already."""
    if _is_int(node):
        return node
    return ast.Call(func=ast.Name(id="int", ctx=ast.Load()), args=[node],
                    keywords=[])


def _parse_stmts(source: str) -> List[ast.stmt]:
    return ast.parse(source).body


def _unparse_block(stmts: Sequence[ast.stmt], indent: str) -> List[str]:
    lines: List[str] = []
    for stmt in stmts:
        for line in ast.unparse(stmt).splitlines():
            lines.append(indent + line)
    return lines


def _flatten(transformed) -> List[ast.stmt]:
    if transformed is None:
        return []
    if isinstance(transformed, list):
        return transformed
    return [transformed]


class Emitter:
    """Assemble and exec the specialised settle/cycle module.

    The emitter takes ownership of the schedule and the analyses: it frees
    them once the source is emitted, before compiling it.
    """

    def __init__(self, schedule: Schedule, comb_procs: Sequence[Callable],
                 seq_analyses: Sequence[ProcAnalysis], max_settle: int,
                 recorder: Recorder) -> None:
        self.schedule = schedule
        self.comb_procs = list(comb_procs)
        self.seq_analyses = list(seq_analyses)
        self.max_settle = max_settle
        self.recorder = recorder
        self.slots = _Slots()
        # The constants of every process and of every helper the analyser
        # entered (a spliced helper's constants land in the kernel too).
        self.holes = _Holes(recorder, (
            proc.__code__ for proc in [*self.comb_procs,
                                       *(a.proc for a in self.seq_analyses),
                                       *(obj for obj in recorder.objects
                                         if type(obj) is types.FunctionType)]
            if isinstance(getattr(proc, "__code__", None), types.CodeType)),
            max_settle)
        self.lines: List[str] = []
        #: Slots of the processes the kernel calls as written.
        self.calls: Set[str] = set()
        #: Tags of the spliced processes with free names, and those names
        #: as the kernel's factory takes them.
        self.owners: List[str] = []
        self.free: List[str] = []
        self.n_specialised = 0
        self.n_spliced_calls = 0
        #: ``"<qualname>: <reason>"`` of every process called as written.
        self.generic: List[str] = []
        #: ``"<qualname>: <reason>"`` of every helper call left a call.
        self.kept: List[str] = []

    # -- splicing ---------------------------------------------------------------

    def splice_body(self, analysis: ProcAnalysis, tag: str
                    ) -> Optional[Tuple[List[ast.stmt], Set[Signal]]]:
        """``analysis.proc``'s body specialised onto slots, to splice where
        the kernel would call the process, and the signals it writes; its
        locals and free names become ``_<tag>_<name>``, and a module global
        ``g`` it reads ``_G<tag>['g']``, a live read of its own module.
        None (and the reason recorded) when the process stays a call."""
        proc = analysis.proc
        reason = _opaque_reason(analysis)
        if reason is None:
            args = analysis.tree.args
            if args.posonlyargs or args.args or args.vararg \
                    or args.kwonlyargs or args.kwarg:
                reason = "takes arguments"
        if reason is None:
            names = self._names(proc, analysis.tree, tag, True)
            if isinstance(names, str):
                reason = names
        if reason is None:
            transpiler = _Transpiler(analysis, self.slots, self.holes,
                                     proc_tag=tag, write="next",
                                     emitter=self, names=names)
            body = [stmt for node in _statements(analysis.tree)
                    for stmt in _flatten(transpiler.visit(node))]
            if not transpiler.used:
                reason = "nothing to rewrite"
        if reason is not None:
            self.generic.append(f"{_label(proc)}: {reason}")
            return None
        self.n_specialised += 1
        free = [f"_{tag}_{name}" for name in proc.__code__.co_freevars]
        if any(isinstance(name, ast.Subscript) for name in names.values()):
            free.append(f"_G{tag}")
        if free:
            self.owners.append(tag)
            self.free += free
        return _lower_returns(body), transpiler.written

    def splice_call(self, inline: Inline, call: ast.Call,
                    caller: _Transpiler) -> Optional[List[ast.stmt]]:
        """The body of the method a statement-position ``call`` of the
        body ``caller`` rewrites enters, to splice in its place: each
        argument bound to a renamed parameter (a literal one written in
        where the body never rebinds it), locals renamed
        ``_<caller tag>h<n>_<name>``.  None (and the reason recorded) when
        the call stays a call."""
        func, analysis = inline.func, inline.analysis
        tag = f"{caller.proc_tag}h{caller.helpers}"
        reason = _opaque_reason(analysis)
        if reason is None:
            arguments = _arguments(analysis.tree.args, call)
            if isinstance(arguments, str):
                reason = arguments
            elif func.__code__.co_freevars:
                reason = "closes over names"
        if reason is None:
            names = self._names(func, analysis.tree, tag, False)
            if isinstance(names, str):
                reason = names
        if reason is not None:
            self.kept.append(f"{_label(func)}: {reason}")
            return None
        caller.helpers += 1
        rebound = _scopes(func.__code__).rebound
        prologue: List[ast.stmt] = []
        for param, value in arguments:
            value = caller.visit(value)
            if isinstance(value, ast.Constant) and param not in rebound:
                names[param] = value
            else:
                prologue.append(ast.Assign(
                    targets=[ast.Name(id=names[param].id, ctx=ast.Store())],
                    value=value, lineno=0))
        transpiler = _Transpiler(analysis, self.slots, self.holes,
                                 proc_tag=tag, write="next", emitter=self,
                                 names=names)
        body = [stmt for node in _statements(analysis.tree)
                for stmt in _flatten(transpiler.visit(node))]
        caller.used |= transpiler.used
        caller.written |= transpiler.written
        self.n_spliced_calls += 1
        return prologue + _lower_returns(body) or [ast.Pass()]

    def _names(self, func: Callable, tree: ast.FunctionDef, tag: str,
               own_globals: bool) -> Any:
        """What each name of ``func``'s body becomes in the kernel, or (a
        str) why the body cannot be spliced.  Its locals and free names are
        renamed for ``tag``.  The kernel's globals are the generated
        module's, so a global name stays bare only when it is a builtin its
        own module does not shadow; a module global is read from
        ``_G<tag>`` when ``own_globals`` (a process), else the body stays a
        call.  Each global is read through the recorder, so the guard
        replays the decision."""
        if _returns(tree.body, False) is None:
            return "returns from inside a loop"
        code = func.__code__
        scopes = _scopes(code)
        names: Dict[str, ast.expr] = {
            name: ast.Name(id=f"_{tag}_{name}", ctx=ast.Load())
            for name in (*code.co_varnames, *code.co_cellvars,
                         *code.co_freevars)}
        for name in scopes.globals:
            if self.recorder.read("env", func, name) is _UNBOUND:
                if hasattr(builtins, name) and not _GENERATED_NAME.match(name):
                    continue
                return f"reads the unbound name {name!r}"
            if not own_globals:
                return f"reads the module global {name!r}"
            if name in scopes.nested or name in names:
                return f"binds the global name {name!r} in a nested scope"
            names[name] = ast.Subscript(
                value=ast.Name(id=f"_G{tag}", ctx=ast.Load()),
                slice=ast.Constant(value=name), ctx=ast.Load())
        for name in scopes.nested:
            if name not in names and _GENERATED_NAME.match(name):
                return f"uses the name {name!r}"
        return names

    # -- unit emission ----------------------------------------------------------

    def emit_unit(self, unit: Unit, indent: str, guarded: bool) -> None:
        if unit.is_call:
            proc_name = self.slots.proc(unit.proc_index,
                                        self.comb_procs[unit.proc_index])
            spliced = self.splice_body(unit.analysis, proc_name[1:])
            if spliced is None:
                self.calls.add(proc_name)
                self.lines.append(f"{indent}{proc_name}()")
            else:
                self.lines.extend(_unparse_block(spliced[0], indent))
            for sig in sorted(unit.writes, key=lambda s: s._uid):
                slot = self.slots.signal(sig)
                if guarded:
                    self.lines.append(
                        f"{indent}if {slot}._value != {slot}._next:")
                    self.lines.append(f"{indent}    {slot}._value = {slot}._next")
                    self.lines.append(f"{indent}    _chg = True")
                else:
                    self.lines.append(f"{indent}{slot}._value = {slot}._next")
            return
        transpiler = _Transpiler(unit.analysis, self.slots, self.holes,
                                 proc_tag=str(unit.proc_index),
                                 write="guarded" if guarded else "fused")
        transformed = _flatten(transpiler.visit(unit.stmt.node))
        self.lines.extend(_unparse_block(transformed, indent))

    def emit_groups(self, indent: str, guarded: bool) -> None:
        for group in self.schedule.groups:
            if group.cyclic and not guarded:
                self.lines.append(f"{indent}for _round in range({self.max_settle}):")
                self.lines.append(f"{indent}    _chg = False")
                for unit in group.units:
                    self.emit_unit(unit, indent + "    ", guarded=True)
                self.lines.append(f"{indent}    if not _chg:")
                self.lines.append(f"{indent}        break")
                self.lines.append(f"{indent}else:")
                self.lines.append(f"{indent}    sim._raise_comb_loop()")
            else:
                for unit in group.units:
                    self.emit_unit(unit, indent, guarded=guarded)

    def emit_opaque(self, indent: str) -> None:
        for analysis in self.schedule.opaque:
            index = self.comb_procs.index(analysis.proc)
            proc_name = self.slots.proc(index, analysis.proc)
            self.calls.add(proc_name)
            self.lines.append(f"{indent}{proc_name}()")
        self.lines.append(f"{indent}_w = sim._written")
        self.lines.append(f"{indent}for _sig in _w:")
        self.lines.append(f"{indent}    if _sig._value != _sig._next:")
        self.lines.append(f"{indent}        _sig._value = _sig._next")
        self.lines.append(f"{indent}        _chg = True")
        self.lines.append(f"{indent}del _w[:]")

    # -- function emission -------------------------------------------------------

    def emit_settle_body(self, indent: str) -> None:
        """The settle: commit stray writes, run the schedule, set
        ``_settled`` to the rounds it took."""
        lines = self.lines
        lines.append(f"{indent}if not sim._attached:")
        lines.append(f"{indent}    sim._check_attached()")
        lines.append(f"{indent}_w = sim._written")
        lines.append(f"{indent}if _w:")
        lines.append(f"{indent}    for _sig in _w:")
        lines.append(f"{indent}        _sig._value = _sig._next")
        lines.append(f"{indent}    del _w[:]")
        if self.schedule.guarded:
            lines.append(f"{indent}for _round in range({self.max_settle}):")
            lines.append(f"{indent}    _chg = False")
            self.emit_groups(indent + "    ", guarded=True)
            self.emit_opaque(indent + "    ")
            lines.append(f"{indent}    if not _chg:")
            lines.append(f"{indent}        break")
            lines.append(f"{indent}else:")
            lines.append(f"{indent}    sim._raise_comb_loop()")
            lines.append(f"{indent}_settled = _round + 1")
        else:
            self.emit_groups(indent, guarded=False)
            lines.append(f"{indent}_settled = 1")
        lines.append(f"{indent}if sim._written:")
        lines.append(f"{indent}    sim._drain_check()")
        lines.append(f"{indent}if sim._verify:")
        lines.append(f"{indent}    sim._verify_settled()")
        lines.append(f"{indent}sim._dirty = False")

    def emit_edge(self, indent: str) -> List[str]:
        """The clock edge: every sequential process, spliced or called,
        then one commit line per signal the spliced bodies write."""
        lines: List[str] = []
        commits: Set[Signal] = set()
        for index, analysis in enumerate(self.seq_analyses):
            spliced = self.splice_body(analysis, f"q{index}")
            if spliced is None:
                self.calls.add(f"_q{index}")
                lines.append(f"{indent}_q{index}()")
            else:
                lines += _unparse_block(spliced[0], indent)
                commits |= spliced[1]
        # Writes the spliced bodies own never reach ``_written``.
        lines += (f"{indent}{slot}._value = {slot}._next" for slot in
                  sorted((self.slots.signal(sig) for sig in commits),
                         key=_slot_key))
        return lines

    def emit_module(self) -> str:
        """The generated module's source.

        The kernel is one function: ``cycle(sim)`` runs a clock edge, with
        every spliced sequential body inline, then the settle inline;
        ``settle(sim)`` is the same code with ``_edge`` false, which
        ``cycle`` calls for a leading settle.  Both come from ``_bind``."""
        self.lines = []
        self.emit_settle_body("        ")
        settle_body = self.lines
        edge = self.emit_edge("            ")
        slots = sorted([*self.slots.signals.values(),
                        *self.slots.memories.values(),
                        *self.slots.fsms.values(), *self.calls],
                       key=_slot_key)
        params = ", ".join(["sim", "_edge=True", "_settle=None",
                            *_params(slots)])
        owners = "".join(f", {tag}={_TABLES[tag[0]]}[{tag[1:]}]"
                         for tag in self.owners)
        return "\n".join([
            '"""Generated by repro.rtl.compile — do not edit."""',
            "",
            f"def _mk_kernel({', '.join(self.free)}):",
            f"    def cycle({params}):",
            "        if _edge:",
            # The attached check must run before the sequential processes:
            # a detached simulator skipping its leading settle would
            # otherwise fire a phantom clock edge into state now owned by
            # the replacement simulator.
            "            if not sim._attached:",
            "                sim._check_attached()",
            "            _rounds = 0",
            "            if sim._dirty or sim._written:",
            "                _rounds = _settle(sim)",
            *edge,
            *settle_body,
            "        if not _edge:",
            "            return _settled",
            "        sim._cycles += 1",
            "        for _watch in sim._watchers:",
            "            _watch(sim._cycles)",
            "        return _rounds + _settled",
            "    return cycle",
            f"settle, cycle = _bind(_mk_kernel{owners})",
            "",
        ])

    def build(self) -> EmittedModule:
        source = self.emit_module()
        report = self._report()
        tables: Dict[str, List[object]] = {
            "_SIGS": list(self.slots.signals),
            "_MEMS": list(self.slots.memories),
            "_FSMS": list(self.slots.fsm_objects),
            "_PROCS": [self.comb_procs[index] for index in self.slots.procs],
            "_SEQS": [analysis.proc for analysis in self.seq_analyses],
        }
        # Free the analyses' syntax trees before the compiler needs memory:
        # it holds ~100 bytes per source byte while it runs, and the kernel
        # is one function, so one compile().
        self.schedule = self.seq_analyses = None
        code = compile(source, "<repro.rtl.compile>", "exec")
        holes = self.holes
        text, spans, used = _render(source, holes)
        # Placeholders the emitter built and then dropped are not values of
        # this module; each one left in the text must survive compile().
        index = {holes.base + number: at for at, number in enumerate(used)}
        met: Set[int] = set()
        fill = _fill(code, holes.base, index, met)
        if met != index.keys():
            lost = [holes.refs[placeholder - holes.base]
                    for placeholder in index.keys() - met]
            raise RTLError(f"compile() folded placeholders away (lost "
                           f"{lost}, {len(met - index.keys())} constant(s) "
                           "left in the placeholder range): the emitter "
                           "must write these values in")
        return EmittedModule(
            template=Template(
                code=code, fill=fill, text=text, spans=spans,
                values=tuple(holes.values[number] for number in used)),
            refs=tuple(holes.refs[number] for number in used),
            pinned=holes.pinned, report=report, tables=tables)

    def _report(self) -> CompileReport:
        transpiled = {u.proc_index for u in self.schedule.units
                      if not u.is_call}
        called = {u.proc_index for u in self.schedule.units if u.is_call}
        cyclic = [g for g in self.schedule.groups if g.cyclic]
        reasons: List[str] = []
        generic = list(self.generic)
        for analysis in self.schedule.opaque:
            reasons.extend(analysis.opaque_reasons)
            generic.append(f"{_label(analysis.proc)}: opaque")
        return CompileReport(
            n_procs=len(self.comb_procs),
            n_transpiled_procs=len(transpiled),
            n_call_procs=len(called),
            n_opaque_procs=len(self.schedule.opaque),
            n_units=len(self.schedule.units),
            n_cyclic_groups=len(cyclic),
            cyclic_group_sizes=[len(g.units) for g in cyclic],
            guarded=self.schedule.guarded,
            opaque_reasons=reasons,
            n_specialised_procs=self.n_specialised,
            n_generic_procs=len(generic),
            generic_reasons=generic,
            n_spliced_calls=self.n_spliced_calls,
            kept_calls=list(self.kept),
        )


#: The namespace table behind each slot prefix, and what a slot binds of
#: its entry: an FSM slot binds the FSM's transition record.
_TABLES = {"s": "_SIGS", "m": "_MEMS", "f": "_FSMS", "p": "_PROCS",
           "q": "_SEQS"}
_BINDS = {"f": "._transitions"}


def _slot_key(name: str):
    return name[1], int(name[2:])


def _params(names: Sequence[str]) -> List[str]:
    """Parameters binding each slot name to its object as a default: one
    ``LOAD_FAST`` per use."""
    return [f"{name}={_TABLES[name[1]]}[{name[2:]}]{_BINDS.get(name[1], '')}"
            for name in names]


def _label(proc: Callable) -> str:
    return getattr(proc, "__qualname__", None) or repr(proc)


def _opaque_reason(analysis: ProcAnalysis) -> Optional[str]:
    """Why the body ``analysis`` walked has no usable notes (None when it
    has)."""
    if analysis.tree is None or analysis.opaque:
        return analysis.opaque_reasons[0] if analysis.opaque_reasons \
            else "opaque"
    return None


def _statements(tree: ast.FunctionDef) -> List[ast.stmt]:
    """A function's statements, without its docstring."""
    body = tree.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        return body[1:]
    return body


def _arguments(params: ast.arguments, call: ast.Call) -> Any:
    """``(parameter, argument)`` for every parameter of a method, in the
    order ``call`` (``recv.name(...)``) evaluates the arguments, the
    receiver first; or why the call stays a call."""
    if params.vararg or params.kwarg:
        return "takes *args or **kwargs"
    if any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(keyword.arg is None for keyword in call.keywords):
        return "passes *args or **kwargs"
    positional = [arg.arg for arg in (*params.posonlyargs, *params.args)]
    by_keyword = {arg.arg for arg in (*params.args, *params.kwonlyargs)}
    values = [call.func.value, *call.args]
    if len(values) > len(positional):
        return "passes more arguments than it takes"
    bound = list(zip(positional, values))
    for keyword in call.keywords:
        if keyword.arg not in by_keyword \
                or keyword.arg in positional[:len(values)]:
            return "passes an argument it does not take"
        bound.append((keyword.arg, keyword.value))
    if len(bound) < len(positional) + len(params.kwonlyargs):
        return "relies on a default argument"
    return bound


def _returns(stmts: Sequence[ast.stmt], in_loop: bool) -> Optional[bool]:
    """Whether ``stmts`` hold a ``return``; None when one sits inside a
    loop.  Only ``if`` and loops nest statements in a body the analyser
    leaves transparent."""
    found = False
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if in_loop:
                return None
            found = True
        elif isinstance(stmt, (ast.If, ast.For, ast.While)):
            inner = in_loop or not isinstance(stmt, ast.If)
            for block in (stmt.body, stmt.orelse):
                nested = _returns(block, inner)
                if nested is None:
                    return None
                found = found or nested
    return found


def _breaks(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """``stmts``, whose returns sit in no loop, with each ``return`` a
    ``break``, after its value when that is more than a constant."""
    out: List[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None \
                    and not isinstance(stmt.value, ast.Constant):
                out.append(ast.Expr(value=stmt.value))
            out.append(ast.Break())
            continue
        if isinstance(stmt, ast.If):
            stmt.body, stmt.orelse = _breaks(stmt.body), _breaks(stmt.orelse)
        out.append(stmt)
    return out


def _lower_returns(body: List[ast.stmt]) -> List[ast.stmt]:
    """``body``, whose returns sit in no loop, with every ``return`` turned
    into structured control flow: a ``return`` ending the body goes, and a
    body that still returns early runs once inside ``while True:``, each
    ``return`` leaving it by ``break``."""
    if body and isinstance(body[-1], ast.Return):
        last = body.pop()
        if last.value is not None and not isinstance(last.value,
                                                     ast.Constant):
            body.append(ast.Expr(value=last.value))
    if not _returns(body, False):
        return body
    return [ast.While(test=ast.Constant(value=True),
                      body=[*_breaks(body), ast.Break()], orelse=[])]


@dataclass(frozen=True)
class _Scope:
    """The names a function's code reads as globals, binds in nested
    scopes (comprehensions), and stores into or deletes among its own."""

    globals: Tuple[str, ...]
    nested: FrozenSet[str]
    rebound: FrozenSet[str]


#: ``code`` -> its :class:`_Scope`.
_SCOPES: Dict[types.CodeType, _Scope] = {}

_STORES = frozenset({"STORE_FAST", "DELETE_FAST", "STORE_DEREF",
                     "DELETE_DEREF"})


def _scopes(code: types.CodeType) -> _Scope:
    scope = _SCOPES.get(code)
    if scope is None:
        found: Dict[str, None] = {}
        nested: Set[str] = set()
        rebound: Set[str] = set()
        for instruction in dis.get_instructions(code):
            if instruction.opname == "LOAD_GLOBAL":
                found[instruction.argval] = None
            elif instruction.opname in _STORES:
                rebound.add(instruction.argval)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                inner = _scopes(const)
                found.update(dict.fromkeys(inner.globals))
                nested |= inner.nested | {*const.co_varnames,
                                          *const.co_cellvars}
        scope = _SCOPES[code] = _Scope(tuple(found), frozenset(nested),
                                       frozenset(rebound))
    return scope


def _render(source: str, holes: _Holes
            ) -> Tuple[str, Tuple[Tuple[int, int, int], ...], List[int]]:
    """``source`` with the recording design's values written in place of
    its placeholders, the span of each value in it, and the placeholder
    number of each value index (numbered by first appearance)."""
    if not holes.refs:
        return source, (), []
    low, high = str(holes.base), str(holes.base + len(holes.refs) - 1)
    prefix = os.path.commonprefix([low[:-1], high])
    width = len(high) - len(prefix)
    pieces = source.split(prefix)
    out = [pieces[0]]
    offset = len(pieces[0])
    spans: List[Tuple[int, int, int]] = []
    at: Dict[int, int] = {}
    for piece in pieces[1:]:
        digits = piece[:width]
        number = int(prefix + digits) - holes.base \
            if digits.isdigit() and not piece[width:width + 1].isdigit() \
            else -1
        if 0 <= number < len(holes.refs):
            value = str(holes.values[number])
            spans.append((offset, offset + len(value),
                          at.setdefault(number, len(at))))
            out += (value, piece[width:])
            offset += len(value) + len(piece) - width
        else:
            out += (prefix, piece)
            offset += len(prefix) + len(piece)
    return "".join(out), tuple(spans), list(at)


def _bind(factory: Callable, **owners: Callable
          ) -> Tuple[Callable, Callable]:
    """The kernel ``factory`` defines, bound to one design's processes:
    each free name ``_<tag>_<name>`` reads the closure cell ``name`` of
    ``owners[tag]``, and ``_G<tag>`` holds the globals dict of
    ``owners[tag]``, so a spliced body reads its own process's cells and
    module, live.  Returns ``(settle, cycle)``: two
    functions over the kernel's one code object, ``settle`` with ``_edge``
    false and ``cycle`` calling it for a leading settle."""
    shape = factory(*[None] * factory.__code__.co_argcount)
    code = shape.__code__

    def cell(free: str) -> types.CellType:
        if free.startswith("_G"):  # ``_G<tag>``: the owner's module globals
            return types.CellType(owners[free[2:]].__globals__)
        tag, name = free[1:].split("_", 1)
        owner = owners[tag]
        return owner.__closure__[owner.__code__.co_freevars.index(name)]

    closure = tuple(map(cell, code.co_freevars))
    _, _, *slots = shape.__defaults__
    settle = types.FunctionType(code, factory.__globals__, "settle",
                                (False, None, *slots), closure or None)
    cycle = types.FunctionType(code, factory.__globals__, "cycle",
                               (True, settle, *slots), closure or None)
    return settle, cycle


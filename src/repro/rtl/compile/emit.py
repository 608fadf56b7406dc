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
  emitted as a specialised copy of its own body: resolved ``sig.value`` /
  ``sig.next`` reads become slot reads, ``sig.next = v`` becomes
  ``_sN._next = int(v) & MASK`` (no ``int()`` where ``v`` is an int by
  construction), an FSM's own ``fsm.is_in("S")`` an integer compare, its
  ``fsm.goto("S")`` a write of S's code to the state slot plus one store
  into the FSM's transition record (``_fK``), its ``fsm.stay()`` a slot
  copy (each only with a literal state name), memory reads index
  ``_mN._data`` directly, and a store into a memory whose class keeps
  ``Memory.__setitem__`` becomes ``_mN._data[int(i) % DEPTH] = int(v) &
  MASK``.  Everything else stays the process's own Python, bound to its
  own globals and closure cells; ``cycle()`` commits the sequential writes
  the copies own with one ``_sN._value = _sN._next`` line each.  Writes
  the rewrite does not own (helpers such as ``self._complete_access()``,
  or an FSM subclass's own ``goto``) still go through ``Signal.next`` and
  the simulator's ``_written`` list.

The generated source is kept on the simulator (``sim.compiled_source``) so
it can be inspected, diffed and unit-tested like any other artefact.

The module names no design object: it reads its signals, memories, FSMs
and processes from the slot tables ``_SIGS``/``_MEMS``/``_FSMS``/
``_PROCS``/``_SEQS`` (:meth:`Template.load` binds them), and everything
it bakes — masks, memory depths and types, FSM codes and methods, literal
notes — is something the analyser's
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
import os
import re
import types
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..component import Memory
from ..errors import CombinationalLoopError, RTLError
from ..signal import Signal
from .analyze import FsmStep, ProcAnalysis
from .guard import Recorder
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
    #: Sequential processes plus combinational call units emitted as
    #: specialised copies of their bodies.
    n_specialised_procs: int = 0
    #: Processes the generated code calls as written (opaque ones included).
    n_generic_procs: int = 0
    #: ``"<qualname>: <reason>"`` for every generic process.
    generic_reasons: List[str] = field(default_factory=list)

    def copy(self) -> "CompileReport":
        """A copy whose lists the caller may change freely."""
        return replace(self, cyclic_group_sizes=list(self.cyclic_group_sizes),
                       opaque_reasons=list(self.opaque_reasons),
                       generic_reasons=list(self.generic_reasons))

    def summary(self) -> str:
        return (f"{self.n_procs} comb procs: {self.n_transpiled_procs} "
                f"dissolved, {self.n_call_procs} called, "
                f"{self.n_opaque_procs} opaque; {self.n_units} units, "
                f"{self.n_cyclic_groups} cyclic groups"
                f"{' (guarded)' if self.guarded else ''}; "
                f"{self.n_specialised_procs} procs specialised, "
                f"{self.n_generic_procs} generic")


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

    ``codes`` are its top-level blocks; ``fills`` says where the
    placeholders sit in each (None: nowhere).  ``text`` is its source with
    the recording design's ``values`` written in, and ``spans`` says where
    each value sits in it: ``(start, end, value index)``.  :meth:`load`
    writes one design's values into the code objects' constants, so the
    kernel runs the bytecode a compile of that design's own literals
    would, and :meth:`source` writes them into the text.
    """

    codes: Tuple[types.CodeType, ...]
    fills: Tuple[Optional[_Fill], ...]
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
        """Exec the blocks, with ``values`` written in, against one
        design's slot tables; returns its ``(settle, cycle)``.  The blocks
        hold no design object, so a recipe's blocks load against every
        design its guard accepts.  They rebind the ``_PROCS``/``_SEQS``
        entries they specialise, so each load gets copies of the
        tables."""
        namespace: Dict[str, object] = {name: list(objects)
                                        for name, objects in tables.items()}
        namespace.update(_bind=_bind,
                         CombinationalLoopError=CombinationalLoopError)
        for code, fill in zip(self.codes, self.fills):
            exec(code if fill is None else fill.apply(values), namespace)
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
    * ``"next"`` — a specialised process body: ``_sN._next = int(v) & MASK``,
      committed by the caller.  This form rewrites only slot accesses,
      stores into a memory that keeps ``Memory.__setitem__`` and an FSM's
      own ``is_in``/``goto``/``stay`` on a literal state name; constants,
      bare signal objects and local names stay the body's own Python.
    """

    def __init__(self, analysis: ProcAnalysis, slots: _Slots, holes: _Holes,
                 proc_tag: str, write: str) -> None:
        self.analysis = analysis
        self.notes = analysis.notes
        self.slots = slots
        self.holes = holes
        self.proc_tag = proc_tag
        self.write = write
        self.specialise = write == "next"
        self.temp_counter = 0
        #: Slot names the rewritten code uses.
        self.used: Set[str] = set()
        #: Signals whose ``.next`` the rewritten code writes (``"next"``).
        self.written: Set[Signal] = set()
        #: A body name that the specialised copy binds itself.
        self.clash: Optional[str] = None

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
            if _SLOT_NAME.match(node.id) or node.id == self.analysis.tree.name:
                self.clash = node.id
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
            data = ast.Attribute(value=ast.Name(id=self._slot(noted),
                                                ctx=ast.Load()),
                                 attr="_data", ctx=ast.Load())
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
        if self.specialise and isinstance(step, FsmStep):
            return self._fsm_step(step)
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


#: The slot parameters of a specialised copy (a body must not use them).
_SLOT_NAME = re.compile(r"_[smf]\d+\Z")

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
        self.slots = _Slots()
        self.holes = _Holes(recorder, (
            proc.__code__ for proc in [*self.comb_procs,
                                       *(a.proc for a in self.seq_analyses)]
            if isinstance(getattr(proc, "__code__", None), types.CodeType)),
            max_settle)
        self.lines: List[str] = []
        #: ``(proc_index, analysis)`` of the call units met while emitting
        #: settle, specialised afterwards.
        self.call_units: List[Tuple[int, ProcAnalysis]] = []
        #: One source block per specialised copy: its factory and binding.
        self.factories: List[str] = []
        self.n_specialised = 0
        #: ``"<qualname>: <reason>"`` of every process called as written.
        self.generic: List[str] = []

    # -- unit emission ----------------------------------------------------------

    def emit_unit(self, unit: Unit, indent: str, guarded: bool) -> None:
        if unit.is_call:
            if unit.proc_index not in self.slots.procs:
                self.call_units.append((unit.proc_index, unit.analysis))
            proc_name = self.slots.proc(unit.proc_index,
                                        self.comb_procs[unit.proc_index])
            self.lines.append(f"{indent}{proc_name}()")
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

    def specialise(self, analysis: ProcAnalysis, name: str,
                   table: str) -> Optional[Set[Signal]]:
        """Emit a factory for a specialised copy of ``analysis.proc`` that
        replaces ``table[N]`` (``name`` is ``_pN``/``_qN``).  Returns the
        signals the copy writes, or None (and records why) when the process
        stays generic."""
        reason = _generic_reason(analysis)
        if reason is None:
            transpiler = _Transpiler(analysis, self.slots, self.holes,
                                     proc_tag=name, write="next")
            body = [stmt for node in analysis.tree.body
                    for stmt in _flatten(transpiler.visit(node))]
            if transpiler.clash is not None:
                reason = f"uses the name {transpiler.clash!r}"
            elif not transpiler.used:
                reason = "nothing to rewrite"
        if reason is not None:
            self.generic.append(f"{_label(analysis.proc)}: {reason}")
            return None
        self.n_specialised += 1
        func = analysis.tree.name
        freevars = ", ".join(analysis.proc.__code__.co_freevars)
        slot_ref = f"{table}[{name[2:]}]"
        self.factories.append("\n".join([
            f"def _mk{name}({freevars}):",
            f"    def {func}({_params(sorted(transpiler.used, key=_slot_key))}):",
            *_unparse_block(body, "        "),
            f"    return {func}",
            f"{slot_ref} = _bind(_mk{name}, {slot_ref})",
        ]))
        return transpiler.written

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
            self.lines.append(f"{indent}{proc_name}()")
        self.lines.append(f"{indent}_w = sim._written")
        self.lines.append(f"{indent}for _sig in _w:")
        self.lines.append(f"{indent}    if _sig._value != _sig._next:")
        self.lines.append(f"{indent}        _sig._value = _sig._next")
        self.lines.append(f"{indent}        _chg = True")
        self.lines.append(f"{indent}del _w[:]")

    # -- function emission -------------------------------------------------------

    def emit_settle_body(self) -> None:
        lines = self.lines
        lines.append("    if not sim._attached:")
        lines.append("        sim._check_attached()")
        lines.append("    _w = sim._written")
        lines.append("    if _w:")
        lines.append("        for _sig in _w:")
        lines.append("            _sig._value = _sig._next")
        lines.append("        del _w[:]")
        if self.schedule.guarded:
            lines.append(f"    for _round in range({self.max_settle}):")
            lines.append("        _chg = False")
            self.emit_groups("        ", guarded=True)
            self.emit_opaque("        ")
            lines.append("        if not _chg:")
            lines.append("            break")
            lines.append("    else:")
            lines.append("        sim._raise_comb_loop()")
            lines.append("    _rounds = _round + 1")
        else:
            self.emit_groups("    ", guarded=False)
            lines.append("    _rounds = 1")
        lines.append("    if sim._written:")
        lines.append("        sim._drain_check()")
        lines.append("    if sim._verify:")
        lines.append("        sim._verify_settled()")
        lines.append("    sim._dirty = False")
        lines.append("    return _rounds")

    def emit_module(self) -> List[str]:
        """The generated module as top-level blocks, in execution order."""
        self.lines = []
        self.emit_settle_body()
        settle_body = self.lines
        # Settle binds every slot allocated so far: the specialised bodies
        # below only add slots of their own.
        settle_params = _params(["sim", *self.slots.signals.values(),
                                 *self.slots.memories.values(),
                                 *self.slots.procs.values()])
        for index, analysis in self.call_units:
            self.specialise(analysis, self.slots.procs[index], "_PROCS")
        commits: Set[Signal] = set()
        for index, analysis in enumerate(self.seq_analyses):
            commits |= self.specialise(analysis, f"_q{index}", "_SEQS") or set()
        commit_slots = sorted((self.slots.signal(sig) for sig in commits),
                              key=_slot_key)
        seq_names = [f"_q{i}" for i in range(len(self.seq_analyses))]
        cycle_params = _params(["sim", *seq_names, *commit_slots])

        cycle = [
            f"def cycle({cycle_params}, _settle=settle):",
            # The attached check must run before the sequential processes:
            # a detached simulator skipping its leading settle would
            # otherwise fire a phantom clock edge into state now owned by
            # the replacement simulator.
            "    if not sim._attached:",
            "        sim._check_attached()",
            "    _rounds = 0",
            "    if sim._dirty or sim._written:",
            "        _rounds = _settle(sim)",
            *(f"    {name}()" for name in seq_names),
            # Writes the specialised bodies own never reach ``_written``.
            *(f"    {slot}._value = {slot}._next" for slot in commit_slots),
            "    _w = sim._written",
            "    for _sig in _w:",
            "        _sig._value = _sig._next",
            "    del _w[:]",
            "    _rounds += _settle(sim)",
            "    sim._cycles += 1",
            "    for _watch in sim._watchers:",
            "        _watch(sim._cycles)",
            "    return _rounds",
        ]
        return ['"""Generated by repro.rtl.compile — do not edit."""',
                *self.factories,
                "\n".join([f"def settle({settle_params}):", *settle_body]),
                "\n".join(cycle)]

    def build(self) -> EmittedModule:
        blocks = self.emit_module()
        report = self._report()
        tables: Dict[str, List[object]] = {
            "_SIGS": list(self.slots.signals),
            "_MEMS": list(self.slots.memories),
            "_FSMS": list(self.slots.fsm_objects),
            "_PROCS": [self.comb_procs[index] for index in self.slots.procs],
            "_SEQS": [analysis.proc for analysis in self.seq_analyses],
        }
        # Free the analyses' syntax trees before the compiler needs memory.
        self.schedule = self.seq_analyses = self.call_units = None
        # One block per compile(), padded so line numbers match the source:
        # CPython's compiler holds ~100 bytes per source byte while it
        # runs, so compiling the whole module at once would raise the
        # process's memory high-water mark with it.
        codes = []
        line = 0
        for block in blocks:
            codes.append(compile("\n" * line + block, "<repro.rtl.compile>",
                                 "exec"))
            line += block.count("\n") + 2
        holes = self.holes
        text, spans, used = _render("\n\n".join(blocks) + "\n", holes)
        # Placeholders the emitter built and then dropped are not values of
        # this module; each one left in the text must survive compile().
        index = {holes.base + number: at for at, number in enumerate(used)}
        met: Set[int] = set()
        fills = tuple(_fill(code, holes.base, index, met) for code in codes)
        if met != index.keys():
            lost = [holes.refs[placeholder - holes.base]
                    for placeholder in index.keys() - met]
            raise RTLError(f"compile() folded placeholders away (lost "
                           f"{lost}, {len(met - index.keys())} constant(s) "
                           "left in the placeholder range): the emitter "
                           "must write these values in")
        return EmittedModule(
            template=Template(
                codes=tuple(codes), fills=fills, text=text, spans=spans,
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
        )


#: The namespace table behind each slot prefix, and what a slot binds of
#: its entry: an FSM slot binds the FSM's transition record.
_TABLES = {"s": "_SIGS", "m": "_MEMS", "f": "_FSMS", "p": "_PROCS",
           "q": "_SEQS"}
_BINDS = {"f": "._transitions"}


def _slot_key(name: str):
    return name[1], int(name[2:])


def _params(names: Sequence[str]) -> str:
    """A parameter list binding each slot name to its object as a default:
    one ``LOAD_FAST`` per use."""
    return ", ".join(name if name == "sim" else
                     f"{name}={_TABLES[name[1]]}[{name[2:]}]"
                     f"{_BINDS.get(name[1], '')}"
                     for name in names)


def _label(proc: Callable) -> str:
    return getattr(proc, "__qualname__", None) or repr(proc)


def _generic_reason(analysis: ProcAnalysis) -> Optional[str]:
    """Why ``analysis.proc`` cannot be specialised (None when it can)."""
    tree = analysis.tree
    if tree is None or analysis.opaque:
        return analysis.opaque_reasons[0] if analysis.opaque_reasons \
            else "opaque"
    args = tree.args
    if args.posonlyargs or args.args or args.vararg or args.kwonlyargs \
            or args.kwarg:
        return "takes arguments"
    return None


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


def _bind(factory: Callable, proc: Callable) -> Callable:
    """The function ``factory`` defines, re-made over ``proc``'s own globals
    and closure cells, so every name the specialisation left alone resolves
    exactly as it does in ``proc``."""
    shape = factory(*[None] * factory.__code__.co_argcount)
    code = shape.__code__
    cells = dict(zip(proc.__code__.co_freevars, proc.__closure__ or ()))
    closure = tuple(cells[name] for name in code.co_freevars)
    return types.FunctionType(code, proc.__globals__, code.co_name,
                              shape.__defaults__, closure or None)


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
  construction), ``fsm.is_in("S")`` an integer compare and memory reads
  index ``_mN._data`` directly.  Everything else stays the
  process's own Python, bound to its own globals and closure cells;
  ``cycle()`` commits the sequential writes the copies own with one
  ``_sN._value = _sN._next`` line each.  Writes the rewrite does not own
  (helpers such as ``FSM.goto``) still go through ``Signal.next`` and the
  simulator's ``_written`` list.

The generated source is kept on the simulator (``sim.compiled_source``) so
it can be inspected, diffed and unit-tested like any other artefact.
"""

from __future__ import annotations

import ast
import re
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..component import Memory
from ..errors import CombinationalLoopError
from ..signal import Signal
from .analyze import ProcAnalysis
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


class _Slots:
    """Stable slot numbering for every object the generated code touches."""

    def __init__(self) -> None:
        self.signals: Dict[Signal, str] = {}
        self.memories: Dict[Memory, str] = {}
        self.procs: Dict[int, str] = {}
        self._sig_objects: List[Signal] = []
        self._mem_objects: List[Memory] = []
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

    def proc(self, index: int, func: Callable) -> str:
        name = self.procs.get(index)
        if name is None:
            name = f"_p{len(self._proc_objects)}"
            self.procs[index] = name
            self._proc_objects.append(func)
        return name


class _Transpiler(ast.NodeTransformer):
    """Rewrite analysed code onto slot-indexed signal access.

    ``write`` is the form a resolved ``sig.next = v`` takes:

    * ``"fused"`` — a dissolved statement in topological order: write and
      commit at once;
    * ``"guarded"`` — a dissolved statement in a converging group: commit
      and flag only on change;
    * ``"next"`` — a specialised process body: ``_sN._next = int(v) & MASK``,
      committed by the caller.  This form rewrites only slot accesses and
      ``fsm.is_in``; constants, bare signal objects and local names stay the
      body's own Python.
    """

    def __init__(self, analysis: ProcAnalysis, slots: _Slots,
                 proc_tag: str, write: str) -> None:
        self.analysis = analysis
        self.notes = analysis.notes
        self.slots = slots
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
                else self.slots.memory(obj))
        self.used.add(name)
        return name

    def _slot_attr(self, sig: Signal, attr: str = "_value",
                   ctx: ast.expr_context = None) -> ast.Attribute:
        return ast.Attribute(value=ast.Name(id=self._slot(sig), ctx=ast.Load()),
                             attr=attr, ctx=ctx or ast.Load())

    def _mangle(self, name: str) -> str:
        return f"_L{self.proc_tag}_{name}"

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
            return ast.Constant(value=noted)
        return self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        noted = self.notes.get(id(node), _MISSING)
        if isinstance(noted, Memory) and isinstance(node.ctx, ast.Load):
            index = self.visit(node.slice)
            data = ast.Attribute(value=ast.Name(id=self._slot(noted),
                                                ctx=ast.Load()),
                                 attr="_data", ctx=ast.Load())
            if self.specialise:
                index = _as_int(index)
            wrapped = ast.BinOp(left=index, op=ast.Mod(),
                                right=ast.Constant(value=noted.depth))
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
        # Bare reads (sensitivity anchors) schedule dependencies but emit no
        # runtime work in a dissolved statement.
        transformed = self.visit(node.value)
        if not self.specialise and isinstance(
                transformed, (ast.Attribute, ast.Constant, ast.Name)):
            return None
        return ast.Expr(value=transformed)

    def visit_Assign(self, node: ast.Assign):
        target = node.targets[0]
        noted = self.notes.get(id(target), _MISSING) \
            if isinstance(target, ast.Attribute) else _MISSING
        if not isinstance(noted, Signal) or len(node.targets) > 1:
            return self.generic_visit(node)
        value = self.visit(node.value)
        if self.specialise:
            self.written.add(noted)
            return ast.Assign(targets=[self._slot_attr(noted, "_next",
                                                       ast.Store())],
                              value=_apply_mask(_as_int(value), noted._mask),
                              lineno=0)
        masked = _apply_mask(value, noted._mask)
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
_SLOT_NAME = re.compile(r"_[sm]\d+\Z")

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


def _apply_mask(value: ast.expr, mask: int) -> ast.expr:
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return ast.Constant(value=int(value.value) & mask)
    return ast.BinOp(left=value, op=ast.BitAnd(),
                     right=ast.Constant(value=mask))


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
                 seq_analyses: Sequence[ProcAnalysis], max_settle: int) -> None:
        self.schedule = schedule
        self.comb_procs = list(comb_procs)
        self.seq_analyses = list(seq_analyses)
        self.max_settle = max_settle
        self.slots = _Slots()
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
        transpiler = _Transpiler(unit.analysis, self.slots,
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
            transpiler = _Transpiler(analysis, self.slots, proc_tag=name,
                                     write="next")
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

    def build(self) -> CompiledProgram:
        blocks = self.emit_module()
        source = "\n\n".join(blocks) + "\n"
        report = self._report()
        namespace: Dict[str, object] = {
            "_SIGS": list(self.slots.signals),
            "_MEMS": list(self.slots.memories),
            "_PROCS": [self.comb_procs[index] for index in self.slots.procs],
            "_SEQS": [analysis.proc for analysis in self.seq_analyses],
            "_bind": _bind,
            "CombinationalLoopError": CombinationalLoopError,
        }
        # Free the analyses' syntax trees before the compiler needs memory.
        self.schedule = self.seq_analyses = self.call_units = None
        # One block per compile(), padded so line numbers match ``source``:
        # CPython's compiler holds ~100 bytes per source byte while it
        # runs, so compiling the whole module at once would raise the
        # process's memory high-water mark with it.
        line = 0
        for block in blocks:
            exec(compile("\n" * line + block, "<repro.rtl.compile>", "exec"),
                 namespace)
            line += block.count("\n") + 2
        return CompiledProgram(settle=namespace["settle"],
                               cycle=namespace["cycle"],
                               source=source, report=report)

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


#: The namespace table behind each slot prefix.
_TABLES = {"s": "_SIGS", "m": "_MEMS", "p": "_PROCS", "q": "_SEQS"}


def _slot_key(name: str):
    return name[1], int(name[2:])


def _params(names: Sequence[str]) -> str:
    """A parameter list binding each slot name to its object as a default:
    one ``LOAD_FAST`` per use."""
    return ", ".join(name if name == "sim"
                     else f"{name}={_TABLES[name[1]]}[{name[2:]}]"
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


"""Static analysis of process bodies.

The compiled backend schedules every combinational process exactly once per
settle (in dependency order), so it must know, *before* simulation, every
:class:`~repro.rtl.signal.Signal` and :class:`~repro.rtl.component.Memory` a
process could ever read or write — including reads hidden behind branches
that a dynamic trace of one evaluation would miss.  This module extracts
those sets from the process's abstract syntax tree:

* attribute chains (``self.fifo.empty``) are resolved at compile time by
  evaluating them against the process's closure and globals, using
  ``inspect.getattr_static`` so properties are analysed rather than invoked;
* dynamic subscripts into Python containers of signals
  (``self._regs[addr].value``) over-approximate to *every* element;
* calls into resolvable helpers (``self._budget_open()``, ``fsm.is_in(...)``,
  local closure functions) are analysed recursively;
* anything that cannot be resolved marks the process *opaque*, which the
  emitter handles with a convergence loop instead of a single pass — slower
  but always correct.

The same walk decides whether a process is *transpilable*: a body made only
of plain signal plumbing (assignments, ternaries, arithmetic, ``fsm.is_in``)
can be dissolved into the generated settle function statement by statement,
removing even the Python call overhead — the software analogue of the
paper's wrapper dissolution.

Every walk also leaves *notes*: which AST node resolved to which signal,
memory or FSM state.  The emitter uses them to specialise the bodies it
does not dissolve (sequential processes and combinational call units)
onto slots.  A sequential process is analysed with ``sequential=True``:
its helpers are not entered, because only the notes of its own body are
needed, not read/write sets.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from ..bits import Bits
from ..component import Memory
from ..signal import Signal

#: Sentinel for "could not be resolved at compile time".
_FAIL = object()

#: Builtins that are safe to see in a process body without recursing.
_SAFE_CALLS = {
    int, bool, len, range, enumerate, min, max, abs, sum, sorted, zip,
    divmod, round, tuple, list, isinstance, Bits,
}

#: Maximum helper-call recursion depth before giving up (opaque).
_MAX_CALL_DEPTH = 8


class AnyOf:
    """Compile-time union of candidate objects (dynamic subscript/branch)."""

    __slots__ = ("options",)

    def __init__(self, options) -> None:
        flat = []
        for opt in options:
            if isinstance(opt, AnyOf):
                flat.extend(opt.options)
            else:
                flat.append(opt)
        self.options = flat

    def __repr__(self) -> str:
        return f"AnyOf({len(self.options)} options)"


@dataclass
class StatementUnit:
    """One transpilable top-level statement of a combinational process."""

    node: ast.stmt
    reads: Set = field(default_factory=set)
    writes: Set = field(default_factory=set)
    mem_reads: Set = field(default_factory=set)
    mem_writes: Set = field(default_factory=set)
    #: Local temporaries this statement defines / uses (for ordering).
    locals_touched: Set[str] = field(default_factory=set)


@dataclass
class ProcAnalysis:
    """Everything the scheduler and emitter need to know about one process."""

    proc: Callable[[], None]
    reads: Set = field(default_factory=set)
    writes: Set = field(default_factory=set)
    mem_reads: Set = field(default_factory=set)
    mem_writes: Set = field(default_factory=set)
    #: True when the analysis could not account for everything the process
    #: might touch; the emitter then falls back to guarded convergence.
    opaque: bool = False
    opaque_reasons: List[str] = field(default_factory=list)
    #: Statement-level decomposition (only when every statement transpiles).
    units: Optional[List[StatementUnit]] = None
    #: AST-node resolution notes consumed by the emitter's transpiler.
    notes: Dict[int, Any] = field(default_factory=dict)
    #: Names of process-local temporaries (for collision-free mangling).
    local_names: Set[str] = field(default_factory=set)
    #: The parsed body the notes refer to (None without readable source).
    tree: Optional[ast.FunctionDef] = None

    @property
    def transpilable(self) -> bool:
        return self.units is not None and not self.opaque


#: Source text cache keyed by code object: every instance of a design class
#: shares the same process code objects, so compiling the second (and every
#: later) instance skips the expensive ``inspect.getsource`` walk.
_SOURCE_CACHE: Dict[Any, Optional[str]] = {}


def _proc_source(func: Callable) -> Optional[str]:
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    try:
        return _SOURCE_CACHE[code]
    except KeyError:
        pass
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError, SyntaxError, IndentationError):
        source = None
    _SOURCE_CACHE[code] = source
    return source


def _parse_proc(func: Callable) -> Optional[ast.FunctionDef]:
    """Parse ``func`` down to its ``FunctionDef`` node (None on failure).

    The definition must carry the function's own name: ``getsource`` of a
    lambda returns its whole line, and of a wrapper the wrapped function.
    """
    source = _proc_source(func)
    if source is None:
        return None
    try:
        tree = ast.parse(source)
    except (SyntaxError, IndentationError, ValueError):
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) \
                and node.name == func.__code__.co_name:
            return node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
    return None


def _closure_env(func: Callable) -> Dict[str, Any]:
    """The names a function body can resolve: closure cells over globals."""
    env = dict(getattr(func, "__globals__", {}))
    freevars = getattr(func.__code__, "co_freevars", ())
    cells = getattr(func, "__closure__", None) or ()
    for name, cell in zip(freevars, cells):
        try:
            env[name] = cell.cell_contents
        except ValueError:  # empty cell
            env.pop(name, None)
    return env


def _is_fsm_like(obj: Any) -> bool:
    """Duck-check for the :class:`~repro.rtl.fsm.FSM` helper."""
    return (hasattr(obj, "state") and isinstance(getattr(obj, "state", None), Signal)
            and hasattr(obj, "encode") and hasattr(obj, "is_in"))


class _Analyzer:
    """AST walker accumulating reads/writes for a single process."""

    def __init__(self, analysis: ProcAnalysis, env: Dict[str, Any],
                 depth: int = 0, call_stack: Optional[Set[Any]] = None,
                 recurse: bool = True,
                 memo: Optional[Dict[Any, Any]] = None) -> None:
        self.analysis = analysis
        self.env = env
        self.depth = depth
        #: Whether resolvable helper calls are analysed too.
        self.recurse = recurse
        #: ``(id(base), attr) -> (base, resolved)``: ``getattr_static`` is
        #: slow and a design's processes resolve the same chains many times.
        self.memo = {} if memo is None else memo
        self.call_stack = call_stack if call_stack is not None else set()
        #: name -> _FAIL (runtime value) or resolved object / AnyOf
        self.locals: Dict[str, Any] = {}
        #: Per-statement transpilability of the current statement.
        self.stmt_transpilable = True
        self.stmt_locals: Set[str] = set()
        self.reads = analysis.reads
        self.writes = analysis.writes
        self.mem_reads = analysis.mem_reads
        self.mem_writes = analysis.mem_writes

    # -- bookkeeping -----------------------------------------------------------

    def bail(self, reason: str) -> None:
        """Something unanalysable: the whole process becomes opaque."""
        self.analysis.opaque = True
        if len(self.analysis.opaque_reasons) < 8:
            self.analysis.opaque_reasons.append(reason)

    def not_transpilable(self) -> None:
        self.stmt_transpilable = False

    def note(self, node: ast.AST, value: Any) -> None:
        self.analysis.notes[id(node)] = value

    def read_signal(self, obj: Any) -> None:
        for sig in _expand(obj):
            if isinstance(sig, Signal):
                self.reads.add(sig)
            elif isinstance(sig, Memory):
                self.mem_reads.add(sig)

    def write_signal(self, obj: Any) -> None:
        for sig in _expand(obj):
            if isinstance(sig, Signal):
                self.writes.add(sig)
            elif isinstance(sig, Memory):
                self.mem_writes.add(sig)

    # -- compile-time resolution ------------------------------------------------

    def resolve(self, node: ast.AST) -> Any:
        """Resolve ``node`` to a compile-time object, ``AnyOf`` or ``_FAIL``.

        Resolution never executes user code: attributes are fetched with
        ``getattr_static`` so properties and other descriptors fail cleanly
        instead of running.
        """
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return self.locals[node.id]
            if node.id in self.env:
                return self.env[node.id]
            builtin = getattr(__builtins__, node.id, _FAIL) if not isinstance(
                __builtins__, dict) else __builtins__.get(node.id, _FAIL)
            return builtin
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return self._resolve_attr(base, node.attr)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base is _FAIL:
                return _FAIL
            index = self.resolve(node.slice)
            return self._resolve_subscript(base, index)
        if isinstance(node, ast.Call):
            # getattr(obj, "attr"[, default]) with resolvable arguments.
            func = self.resolve(node.func)
            if func is getattr and len(node.args) in (2, 3) and not node.keywords:
                base = self.resolve(node.args[0])
                attr = self.resolve(node.args[1])
                if base is not _FAIL and isinstance(attr, str):
                    resolved = self._resolve_attr(base, attr)
                    if resolved is _FAIL and len(node.args) == 3:
                        return self.resolve(node.args[2])
                    return resolved
            return _FAIL
        return _FAIL

    def _resolve_attr(self, base: Any, attr: str) -> Any:
        if base is _FAIL:
            return _FAIL
        if isinstance(base, AnyOf):
            resolved = [self._resolve_attr(opt, attr) for opt in base.options]
            ok = [r for r in resolved if r is not _FAIL]
            if not ok:
                return _FAIL
            return AnyOf(ok) if len(ok) > 1 else ok[0]
        key = (id(base), attr)
        cached = self.memo.get(key)
        if cached is not None and cached[0] is base:
            return cached[1]
        try:
            value = inspect.getattr_static(base, attr)
        except (AttributeError, TypeError):
            value = _FAIL
        if isinstance(value, (property, classmethod, staticmethod)):
            value = _FAIL  # descriptor: would execute code; analysed elsewhere
        elif hasattr(value, "__get__") and not callable(value) \
                and not isinstance(value, (Signal, Memory)):
            value = _FAIL
        # getattr_static returns plain functions for methods; keep them —
        # call analysis re-binds the instance explicitly.
        self.memo[key] = (base, value)
        return value

    def _resolve_subscript(self, base: Any, index: Any) -> Any:
        if isinstance(base, AnyOf):
            resolved = [self._resolve_subscript(opt, index) for opt in base.options]
            ok = [r for r in resolved if r is not _FAIL]
            if not ok:
                return _FAIL
            return AnyOf(ok) if len(ok) > 1 else ok[0]
        if isinstance(base, Memory):
            # The memory itself is the dependency; elements are runtime values.
            return _FAIL
        if isinstance(base, (list, tuple)):
            if index is not _FAIL and not isinstance(index, AnyOf):
                try:
                    return base[index]
                except (IndexError, TypeError, KeyError):
                    return _FAIL
            if base:
                return AnyOf(list(base)) if len(base) > 1 else base[0]
            return _FAIL
        if isinstance(base, dict):
            if index is not _FAIL and not isinstance(index, AnyOf):
                try:
                    return base[index]
                except (KeyError, TypeError):
                    return _FAIL
            values = list(base.values())
            if values:
                return AnyOf(values) if len(values) > 1 else values[0]
            return _FAIL
        return _FAIL

    def _iter_elements(self, value: Any) -> Optional[List[Any]]:
        """Elements of a resolvable iterable, or None."""
        if isinstance(value, (list, tuple)):
            return list(value)
        if isinstance(value, dict):
            return list(value)
        if isinstance(value, AnyOf):
            out: List[Any] = []
            for opt in value.options:
                elems = self._iter_elements(opt)
                if elems is None:
                    return None
                out.extend(elems)
            return out
        return None

    # -- statement walk ---------------------------------------------------------

    def visit_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) > 1:
                self.not_transpilable()
            self.visit_expr(stmt.value)
            for target in stmt.targets:
                self.visit_target(target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.not_transpilable()
            self.visit_expr(stmt.value)
            self.visit_aug_target(stmt.target)
        elif isinstance(stmt, ast.AnnAssign):
            self.not_transpilable()
            if stmt.value is not None:
                self.visit_expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.assign_local(stmt.target.id, self.resolve(stmt.value)
                                  if stmt.value is not None else _FAIL)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant):
                return  # docstring
            self.visit_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.visit_expr(stmt.test, truth=True)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.While)):
            self.not_transpilable()
            self.visit_loop(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.not_transpilable()
                self.visit_expr(stmt.value)
            else:
                # A bare `return` early-exits the process; later statements
                # may not run, which a statement-split schedule cannot model.
                self.not_transpilable()
        elif isinstance(stmt, ast.Pass):
            return
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            # Only cuts paths short; the loop walk already covers them all.
            self.not_transpilable()
        elif isinstance(stmt, ast.Assert):
            self.not_transpilable()
            self.visit_expr(stmt.test, truth=True)
            if stmt.msg is not None:
                self.visit_expr(stmt.msg)
        elif isinstance(stmt, ast.Raise):
            # Raising aborts the simulation; it cannot hide signal traffic.
            self.not_transpilable()
            if stmt.exc is not None and not isinstance(stmt.exc, ast.Call):
                self.visit_expr(stmt.exc)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal)):
            self.not_transpilable()
            self.bail(f"unsupported statement {type(stmt).__name__}")
        else:
            self.not_transpilable()
            self.bail(f"unsupported statement {type(stmt).__name__}")

    def forget_notes(self, nodes) -> None:
        """Drop the notes under ``nodes`` before a loop's second pass."""
        notes = self.analysis.notes
        for root in nodes:
            for node in ast.walk(root):
                notes.pop(id(node), None)

    def visit_loop(self, stmt) -> None:
        # Two passes: the second sees every alias the body assigns, so only
        # its notes are kept.
        repeated = list(stmt.body)
        if isinstance(stmt, ast.While):
            repeated.append(stmt.test)
        else:
            self.visit_expr(stmt.iter)
            self.bind_loop_target(stmt.target, stmt.iter)
        for _ in range(2):
            self.forget_notes(repeated)
            if isinstance(stmt, ast.While):
                self.visit_expr(stmt.test, truth=True)
            self.visit_body(stmt.body)
        self.visit_body(stmt.orelse)

    def bind_loop_target(self, target: ast.expr, iter_node: ast.expr) -> None:
        """Bind loop targets to element unions when the iterable resolves."""
        elements: Optional[List[Any]] = None
        enumerated = False
        if isinstance(iter_node, ast.Call):
            func = self.resolve(iter_node.func)
            if func is enumerate and iter_node.args:
                elements = self._iter_elements(self.resolve(iter_node.args[0]))
                enumerated = True
            elif func is range:
                elements = []  # targets are plain ints: no aliases
        if elements is None and not enumerated:
            elements = self._iter_elements(self.resolve(iter_node))

        def union(elems: Optional[List[Any]]) -> Any:
            if not elems:
                return _FAIL
            return AnyOf(elems) if len(elems) > 1 else elems[0]

        if enumerated and isinstance(target, ast.Tuple) and len(target.elts) == 2:
            self.assign_local_target(target.elts[0], _FAIL)
            self.assign_local_target(target.elts[1], union(elements))
        else:
            self.assign_local_target(target, union(elements))

    def assign_local_target(self, target: ast.expr, value: Any) -> None:
        if isinstance(target, ast.Name):
            self.assign_local(target.id, value)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self.assign_local_target(elt, _FAIL)
        # Attribute/Subscript loop targets would mutate structure: bail.
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.bail("loop target mutates an attribute or subscript")

    def assign_local(self, name: str, value: Any) -> None:
        """Record a local binding, accumulating unions across branches."""
        self.stmt_locals.add(name)
        previous = self.locals.get(name, None)
        if previous is None:
            self.locals[name] = value
            return
        if previous is _FAIL or value is _FAIL:
            self.locals[name] = _FAIL
            return
        if previous is value:
            return
        self.locals[name] = AnyOf([previous, value])

    # -- assignment targets -----------------------------------------------------

    def visit_target(self, target: ast.expr, value_node: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.assign_local(target.id, self.resolve(value_node))
            return
        if isinstance(target, ast.Attribute):
            if target.attr == "next":
                base = self.resolve(target.value)
                if base is _FAIL:
                    self.not_transpilable()
                    self.bail(f"cannot resolve write target "
                              f"{ast.dump(target)[:60]}")
                    return
                if _contains_signal(base):
                    self.write_signal(base)
                    self.note(target, base)
                    if isinstance(base, AnyOf):
                        self.not_transpilable()
                    return
            # Writing some other attribute (Python-side state) does not touch
            # the signal graph but cannot be transpiled.
            self.not_transpilable()
            self.visit_expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if isinstance(base, Memory) or (
                    isinstance(base, AnyOf)
                    and any(isinstance(o, Memory) for o in base.options)):
                self.write_signal(base)
                self.note(target, base)
                self.not_transpilable()  # comb memory writes stay interpreted
                self.visit_expr(target.slice)
                return
            if base is _FAIL:
                self.not_transpilable()
                self.bail("cannot resolve subscript write target")
                return
            if _contains_signal(base):
                self.not_transpilable()
                self.bail("subscript store into a container of signals")
                return
            self.not_transpilable()
            self.visit_expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            self.not_transpilable()
            for elt in target.elts:
                self.visit_target(elt, value_node)
            return
        self.not_transpilable()
        self.bail(f"unsupported assignment target {type(target).__name__}")

    def visit_aug_target(self, target: ast.expr) -> None:
        """``x += ...`` — target is read and written."""
        if isinstance(target, ast.Name):
            self.assign_local(target.id, _FAIL)
            return
        if isinstance(target, ast.Attribute) and target.attr == "next":
            base = self.resolve(target.value)
            if base is _FAIL:
                self.bail("cannot resolve augmented write target")
                return
            if _contains_signal(base):
                self.write_signal(base)
                self.read_signal(base)
                return
        if isinstance(target, ast.Attribute):
            self.visit_expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if isinstance(base, Memory):
                self.mem_writes.add(base)
                self.mem_reads.add(base)
                self.visit_expr(target.slice)
                return
            self.visit_expr(target.value)
            self.visit_expr(target.slice)
            return
        self.bail(f"unsupported augmented target {type(target).__name__}")

    # -- expressions ------------------------------------------------------------

    def visit_expr(self, node: ast.expr, truth: bool = False) -> None:
        if isinstance(node, ast.Constant):
            return
        if isinstance(node, ast.Attribute):
            if node.attr in ("value", "bits", "next"):
                base = self.resolve(node.value)
                if _contains_signal(base):
                    self.read_signal(base)
                    self.note(node, base)
                    if node.attr != "value" or isinstance(base, AnyOf):
                        self.not_transpilable()
                    return
            resolved = self.resolve(node)
            self._expr_resolved(node, resolved, truth)
            return
        if isinstance(node, (ast.Name, ast.Subscript)):
            resolved = self.resolve(node)
            if resolved is not _FAIL and _contains_signal(resolved):
                self._expr_resolved(node, resolved, truth)
                return
            if isinstance(node, ast.Subscript):
                base = self.resolve(node.value)
                if isinstance(base, Memory) or (
                        isinstance(base, AnyOf)
                        and any(isinstance(o, Memory) for o in base.options)):
                    self.read_signal(base)
                    self.note(node, base)
                    self.visit_expr(node.slice)
                    return
                if base is _FAIL:
                    # e.g. subscripting a runtime value; analyse children.
                    self.visit_expr(node.value)
                    self.visit_expr(node.slice)
                    self.not_transpilable()
                    return
                # Subscript of plain data (list of ints...): deps only via
                # the index expression.
                self.visit_expr(node.slice)
                if not isinstance(node.slice, ast.Constant):
                    self.not_transpilable()
                elif not isinstance(base, (list, tuple, dict, str, bytes)):
                    self.not_transpilable()
                else:
                    resolved_const = self._resolve_subscript(
                        base, self.resolve(node.slice))
                    if not _is_literal(resolved_const):
                        self.not_transpilable()
                    else:
                        self.note(node, resolved_const)
                return
            # Plain name: a runtime local or a resolvable constant.
            if isinstance(node, ast.Name) and node.id in self.locals:
                value = self.locals[node.id]
                if value is not _FAIL and _contains_signal(value):
                    self._expr_resolved(node, value, truth)
                return
            if resolved is not _FAIL and not _is_literal(resolved):
                # Non-literal constant (object reference) used bare: fine for
                # analysis, but the transpiler cannot embed it.
                self.not_transpilable()
            elif resolved is not _FAIL:
                self.note(node, resolved)
            else:
                # An unresolvable bare name could hide anything (even a
                # rebound signal): give up on this process entirely.
                self.not_transpilable()
                self.bail(f"cannot resolve name {getattr(node, 'id', '?')!r}")
            return
        if isinstance(node, ast.Call):
            self.visit_call(node)
            return
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.visit_expr(value, truth=True)
            return
        if isinstance(node, ast.UnaryOp):
            self.visit_expr(node.operand, truth=isinstance(node.op, ast.Not))
            return
        if isinstance(node, ast.BinOp):
            self.visit_expr(node.left)
            self.visit_expr(node.right)
            return
        if isinstance(node, ast.Compare):
            self.visit_expr(node.left)
            for comp in node.comparators:
                self.visit_expr(comp)
            return
        if isinstance(node, ast.IfExp):
            self.visit_expr(node.test, truth=True)
            self.visit_expr(node.body, truth=truth)
            self.visit_expr(node.orelse, truth=truth)
            return
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            self.not_transpilable()
            for elt in node.elts:
                self.visit_expr(elt)
            return
        if isinstance(node, ast.Dict):
            self.not_transpilable()
            for key in node.keys:
                if key is not None:
                    self.visit_expr(key)
            for value in node.values:
                self.visit_expr(value)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self.not_transpilable()
            self.visit_comprehension(node.generators, [node.elt])
            return
        if isinstance(node, ast.DictComp):
            self.not_transpilable()
            self.visit_comprehension(node.generators, [node.key, node.value])
            return
        if isinstance(node, ast.JoinedStr):
            self.not_transpilable()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.visit_expr(value.value)
            return
        if isinstance(node, ast.Starred):
            self.not_transpilable()
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.visit_expr(part)
            self.not_transpilable()
            return
        if isinstance(node, ast.Lambda):
            self.not_transpilable()
            self.bail("lambda inside a combinational process")
            return
        self.not_transpilable()
        self.bail(f"unsupported expression {type(node).__name__}")

    def _expr_resolved(self, node: ast.expr, resolved: Any,
                       truth: bool) -> None:
        """An expression resolving to a compile-time object, used bare."""
        if resolved is _FAIL:
            self.not_transpilable()
            self.bail(f"cannot resolve {ast.dump(node)[:60]}")
            return
        if _contains_signal(resolved):
            # A bare Signal read (truthiness, int()...): depends on its value.
            self.read_signal(resolved)
            self.note(node, resolved)
            if not truth or isinstance(resolved, AnyOf) or not isinstance(
                    resolved, Signal):
                self.not_transpilable()
            return
        if _is_literal(resolved):
            self.note(node, resolved)
            return
        self.not_transpilable()

    def visit_comprehension(self, generators, elements) -> None:
        for gen in generators:
            self.visit_expr(gen.iter)
            self.bind_loop_target(gen.target, gen.iter)
            for cond in gen.ifs:
                self.visit_expr(cond, truth=True)
        for _ in range(2):
            self.forget_notes(elements)
            for element in elements:
                self.visit_expr(element)

    # -- calls ------------------------------------------------------------------

    def visit_call(self, node: ast.Call) -> None:
        func = self.resolve(node.func)
        bound_self = None
        if func is _FAIL and isinstance(node.func, ast.Attribute):
            base = self.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf):
                method = inspect.getattr_static(type(base), node.func.attr, _FAIL) \
                    if not inspect.isclass(base) else _FAIL
                if callable(method) and method is not _FAIL:
                    func, bound_self = method, base
        elif isinstance(node.func, ast.Attribute) and callable(func) \
                and not isinstance(func, type):
            base = self.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and not inspect.ismodule(base) and not inspect.isclass(base):
                bound_self = base

        # fsm.is_in("NAME"): reads the FSM state register; transpiles to an
        # integer comparison against the state's encoding.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "is_in" \
                and len(node.args) == 1 and not node.keywords:
            base = self.resolve(node.func.value)
            state_name = self.resolve(node.args[0])
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and _is_fsm_like(base) and isinstance(state_name, str):
                self.reads.add(base.state)
                try:
                    code = base.encode(state_name)
                except Exception:
                    self.bail(f"unknown FSM state {state_name!r}")
                    return
                self.note(node, (base.state, code))
                return

        # getattr(obj, "attr") resolving to a signal: handled by resolve();
        # the caller records the read via the surrounding .value access.
        if func is getattr:
            resolved = self.resolve(node)
            if resolved is not _FAIL and _contains_signal(resolved):
                self.note(node, resolved)
                return
            for arg in node.args:
                self.visit_expr(arg)
            self.not_transpilable()
            return

        if func in _SAFE_CALLS:
            truth = func in (int, bool)
            for arg in node.args:
                self.visit_expr(arg, truth=truth)
            for kw in node.keywords:
                self.visit_expr(kw.value)
            self.not_transpilable()
            return

        if func is _FAIL or not callable(func):
            self.not_transpilable()
            self.bail(f"cannot resolve call {ast.dump(node.func)[:60]}")
            for arg in node.args:
                self.visit_expr(arg)
            for kw in node.keywords:
                self.visit_expr(kw.value)
            return

        # A resolvable helper: analyse its body recursively.  The callee's
        # reads/writes land in the *caller's current* sets so statement-level
        # attribution stays correct.
        self.not_transpilable()
        for arg in node.args:
            self.visit_expr(arg)
        for kw in node.keywords:
            self.visit_expr(kw.value)
        if self.recurse:
            self.recurse_into(func, bound_self)

    def recurse_into(self, func: Callable, bound_self: Any) -> None:
        if isinstance(func, (classmethod, staticmethod)):
            func = func.__func__
        inner = getattr(func, "__func__", func)  # unwrap bound methods
        key = (inner, id(bound_self))
        if key in self.call_stack:
            return
        if self.depth >= _MAX_CALL_DEPTH:
            self.bail(f"call depth limit at {getattr(inner, '__name__', inner)}")
            return
        if not inspect.isfunction(inner):
            self.bail(f"cannot analyse call target {inner!r}")
            return
        parsed = _parse_proc(inner)
        if parsed is None:
            self.bail(f"no source for {getattr(inner, '__name__', inner)}")
            return
        sub = _Analyzer(self.analysis, _closure_env(inner),
                        depth=self.depth + 1,
                        call_stack=self.call_stack | {key}, memo=self.memo)
        sub.reads = self.reads
        sub.writes = self.writes
        sub.mem_reads = self.mem_reads
        sub.mem_writes = self.mem_writes
        params = [a.arg for a in parsed.args.args + parsed.args.kwonlyargs]
        if parsed.args.vararg:
            params.append(parsed.args.vararg.arg)
        if parsed.args.kwarg:
            params.append(parsed.args.kwarg.arg)
        for param in params:
            sub.locals[param] = _FAIL
        actual_self = getattr(func, "__self__", bound_self)
        if params and actual_self is not None:
            sub.locals[params[0]] = actual_self
        # Recursion only needs reads/writes; transpilability is already off.
        sub.visit_body(parsed.body)


def _expand(obj: Any):
    if isinstance(obj, AnyOf):
        for opt in obj.options:
            yield from _expand(opt)
    else:
        yield obj


def _contains_signal(obj: Any) -> bool:
    if isinstance(obj, AnyOf):  # options are already flat
        return any(isinstance(o, (Signal, Memory)) for o in obj.options)
    return isinstance(obj, (Signal, Memory))


def _is_literal(obj: Any) -> bool:
    """Values the transpiler may embed as literals in generated source."""
    return obj is None or isinstance(obj, (int, bool, str))


def analyze_proc(proc: Callable[[], None], sequential: bool = False,
                 memo: Optional[Dict[Any, Any]] = None) -> ProcAnalysis:
    """Analyse one process.

    For a combinational process, returns a :class:`ProcAnalysis` whose
    ``reads``/``writes`` over-approximate every branch of the process.  For a
    ``sequential`` one, only the notes on its own body are collected.  The
    processes of one design share a resolution ``memo``.
    """
    analysis = ProcAnalysis(proc=proc)
    parsed = _parse_proc(proc)
    if parsed is None:
        analysis.opaque = True
        analysis.opaque_reasons.append("source unavailable")
        return analysis
    analysis.tree = parsed
    walker = _Analyzer(analysis, _closure_env(proc), recurse=not sequential,
                       memo=memo)
    if sequential:
        walker.visit_body(parsed.body)
        return analysis
    units: List[StatementUnit] = []
    splittable = True
    for stmt in parsed.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        # Give the walker fresh per-statement sets: a signal read by two
        # statements must appear in *both* units' read sets, or the second
        # one loses its scheduling edge.
        walker.reads = set()
        walker.writes = set()
        walker.mem_reads = set()
        walker.mem_writes = set()
        walker.stmt_transpilable = True
        walker.stmt_locals = set()
        walker.visit_stmt(stmt)
        analysis.reads |= walker.reads
        analysis.writes |= walker.writes
        analysis.mem_reads |= walker.mem_reads
        analysis.mem_writes |= walker.mem_writes
        unit = StatementUnit(
            node=stmt,
            reads=walker.reads,
            writes=walker.writes,
            mem_reads=walker.mem_reads,
            mem_writes=walker.mem_writes,
            locals_touched=set(walker.stmt_locals),
        )
        # Locals *read* by this statement also order it after their defs.
        unit.locals_touched |= _locals_used(stmt, walker)
        units.append(unit)
        if not walker.stmt_transpilable:
            splittable = False
    analysis.local_names = set(walker.locals)
    if splittable and not analysis.opaque and units:
        analysis.units = units
    return analysis


def _locals_used(stmt: ast.stmt, walker: _Analyzer) -> Set[str]:
    """Names of process-local temporaries referenced anywhere in ``stmt``."""
    used: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id in walker.locals:
            used.add(node.id)
    return used

"""Guards: the instance facts a compile read, replayable on another design.

The analyser (:mod:`~repro.rtl.compile.analyze`) reads instance state only
through a :class:`Recorder`: closure cells and globals, attributes fetched
with ``getattr_static`` (on an object and on its type), constant
subscripts and dynamic-index element scans, FSM state registers and
``FSM.encode``, and the ``__func__``/``__self__`` of each helper a call
enters.  The recorder memoises each read per design and logs it as a
*fact*: ``(op, input handle, argument) -> summary``.  The log is the
design's :class:`Guard`.

Facts come in two kinds.  A *decision* fact shapes the emitted code and is
compared as read.  A *value* fact only ever becomes an integer literal in
it, so one compiled module serves every value (see
:mod:`repro.rtl.compile.emit`): a signal's mask, a memory's depth and
mask (values of that object's handle, not part of its summary), and an
``attr`` read of a plain ``int`` from instance state whose every request
was a literal note outside a truth test (:meth:`Recorder.literal`).  A
guard compares a value fact by type only, unless the emitter *pinned* it
by folding it into another constant; a pinned value is compared like a
decision.

A :class:`Replay` re-reads a guard's facts on another design built from
the same process code.  When every decision matches, that design would
analyse — and emit — identically up to its values, so the compiled module
of the first design serves it with the design's own values written in
(see :mod:`repro.rtl.compile`).
"""

from __future__ import annotations

import inspect
import types
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..component import Memory
from ..signal import Signal

#: Sentinel for "could not be resolved at compile time".
_FAIL = object()

# Every read is one *op*: a function of an input object and an argument
# returning ``(value, shared)``, where ``shared`` says the value was reached
# through a globals dict, a module or a class ``__dict__`` rather than
# through instance state.

#: Values a guard compares by type and value.
_SCALARS = (bool, int, float, complex, str, bytes)

#: Element types a dynamic-index scan treats as plain runtime data.
_PLAIN_TYPES = frozenset({type(None), bool, int, float, str, bytes})

#: A name that resolves to nothing in a function's closure or globals.
_MISSING = object()
#: A dynamic-index scan over plain scalars: the element is a runtime value.
_PLAIN = object()
#: ``FSM.encode`` raised.
_RAISED = object()


def _op_env(func: Callable, name: str):
    """A free name of ``func``: its closure cell (empty: missing), else its
    global."""
    freevars = getattr(func.__code__, "co_freevars", ())
    cells = getattr(func, "__closure__", None) or ()
    if name in freevars and freevars.index(name) < len(cells):
        try:
            return cells[freevars.index(name)].cell_contents, False
        except ValueError:  # empty cell
            return _MISSING, False
    return getattr(func, "__globals__", {}).get(name, _MISSING), True


def _op_attr(base: Any, attr: str):
    """``getattr_static``, failing on descriptors that would run code."""
    try:
        value = inspect.getattr_static(base, attr)
    except (AttributeError, TypeError):
        return _FAIL, False
    if isinstance(value, (property, classmethod, staticmethod)):
        return _FAIL, False  # descriptor: would execute code
    if hasattr(value, "__get__") and not callable(value) \
            and not isinstance(value, (Signal, Memory)):
        return _FAIL, False
    # getattr_static returns plain functions for methods; keep them — call
    # analysis re-binds the instance explicitly.
    if isinstance(base, (type, types.ModuleType)):
        return value, True
    try:
        own = object.__getattribute__(base, "__dict__")
    except AttributeError:
        return value, True
    return value, not (type(own) is dict and own.get(attr, _FAIL) is value)


def _op_type_attr(base: Any, attr: str):
    """A method looked up on the type of ``base``."""
    return inspect.getattr_static(type(base), attr, _FAIL), True


def _op_item(base: Any, index: Any):
    """A constant subscript of a list, tuple or dict."""
    try:
        return base[index], False
    except (IndexError, TypeError, KeyError):
        return _FAIL, False


def _op_scan(base: Any, keys: bool):
    """The elements a dynamic index (or a loop) can reach: the items of a
    list or tuple, the values (or ``keys``) of a dict.

    A C-level type scan that finds only plain scalars — stimulus queues,
    lookup tables — returns ``_PLAIN``, so the element is a runtime value
    like a ``Memory`` word, however long the container is.  A one-element
    container still yields its element.
    """
    items = (base.keys() if keys else base.values()) \
        if isinstance(base, dict) else base
    if len(items) != 1 and _PLAIN_TYPES.issuperset(map(type, items)):
        return _PLAIN, False
    return list(items), False


def _op_fsm_state(obj: Any, _: Any):
    """The state register of an :class:`~repro.rtl.fsm.FSM`-like object
    (duck-checked), or ``_FAIL``."""
    state = getattr(obj, "state", None)
    if isinstance(state, Signal) and hasattr(obj, "encode") \
            and hasattr(obj, "is_in"):
        return state, False
    return _FAIL, False


def _op_encode(fsm: Any, state_name: str):
    """``fsm.encode(state_name)`` — user code."""
    try:
        return fsm.encode(state_name), False
    except Exception:
        return _RAISED, False


def _op_callee(func: Any, bound_self: Any):
    """The function a call enters and the instance it binds: ``__func__``
    and ``__self__`` of methods and class/static methods."""
    if isinstance(func, (classmethod, staticmethod)):
        func = func.__func__
    return (getattr(func, "__func__", func),
            getattr(func, "__self__", bound_self)), False


_OPS = {
    "env": _op_env,
    "attr": _op_attr,
    "type_attr": _op_type_attr,
    "item": _op_item,
    "scan": _op_scan,
    "fsm_state": _op_fsm_state,
    "encode": _op_encode,
    "callee": _op_callee,
}

#: Argument types a :class:`Recorder` memoises by input identity.
_FAST_ARGS = frozenset({str, bool, type(None)})

#: Ops whose value is a sequence summarised element by element.
_SEQUENCE_OPS = frozenset({"scan", "callee"})


class _Handles:
    """Numbers objects in the order they are met and summarises them.

    A handle repeats exactly when the object repeats, so two designs whose
    summaries agree alias their objects alike, and the map between their
    objects is one to one.  ``keep`` (recording only) collects the objects
    compared by identity, so their ids stay theirs.
    """

    def __init__(self, roots: Sequence[Any],
                 keep: Optional[Dict[int, Any]] = None) -> None:
        self.objects: List[Any] = []
        self.handles: Dict[int, int] = {}
        self.keep = keep
        self.roots = tuple(self.summary(root, False) for root in roots)

    def handle(self, obj: Any) -> Optional[int]:
        handle = self.handles.get(id(obj))
        if handle is not None and self.objects[handle] is obj:
            return handle
        return None

    def _identity(self, obj: Any) -> int:
        if self.keep is not None:
            self.keep[id(obj)] = obj
        return id(obj)

    def summary(self, value: Any, shared: bool) -> Any:
        """What a guard compares for ``value``: scalars by type and value,
        classes, modules, builtins and shared objects by identity, every
        other object by type and handle (functions also by code object and
        qualified name).  A signal's mask and a memory's depth and mask
        are values of its handle, not part of its summary."""
        if value is None or isinstance(value, _SCALARS):
            return type(value), value
        if value is _FAIL or value is _MISSING or value is _RAISED \
                or value is _PLAIN:
            return value
        handle = self.handles.get(id(value))
        if handle is None:
            handle = self.handles[id(value)] = len(self.objects)
            self.objects.append(value)
        if shared or isinstance(value, (type, types.ModuleType,
                                        types.BuiltinFunctionType)):
            return "id", handle, self._identity(value)
        if isinstance(value, (types.FunctionType, types.MethodType)):
            return ("fn", type(value), handle,
                    self._identity(value.__code__), value.__qualname__)
        return type(value), handle

    def summarise(self, op: str, value: Any, shared: bool) -> Any:
        if op in _SEQUENCE_OPS and value is not _PLAIN:
            return tuple(self.summary(item, shared) for item in value)
        return self.summary(value, shared)

    def encode(self, obj: Any) -> Any:
        """An op's input or argument as the guard stores it: a handle or a
        scalar (None when it is neither)."""
        handle = self.handle(obj)
        if handle is not None:
            return handle
        if obj is None or isinstance(obj, _SCALARS):
            return type(obj), obj
        return None

    def decode(self, encoded: Any) -> Any:
        return self.objects[encoded] if type(encoded) is int else encoded[1]


#: The summary a guard stores for a value fact: compared by type only.
_VALUE = object()


def _value(ref: Tuple[str, int], objects: Sequence[Any],
           facts: Sequence[Tuple[Any, Any]]) -> Any:
    """The value ``ref`` names: ``("fact", index)`` is the int an ``attr``
    fact read, ``("_mask", handle)`` and ``("depth", handle)`` that
    attribute of a signal or memory."""
    kind, at = ref
    return facts[at][1][1] if kind == "fact" else getattr(objects[at], kind)


def _typed(fact: Tuple[Any, Any], read: Tuple[Any, Any]) -> bool:
    """True when ``fact`` is a value fact and ``read`` is the same read
    returning a plain int."""
    return (fact[1] is _VALUE and fact[0] == read[0]
            and type(read[1]) is tuple and read[1][0] is int)


@dataclass(frozen=True)
class Guard:
    """The instance facts one compile read, replayable on another design.

    ``facts`` is ``((op, input, argument), summary)`` in the order the
    analyser read them, a value fact's summary being ``_VALUE``; ``keep``
    holds the identity-compared objects.  ``values`` names, in placeholder
    order, the value each placeholder of the compiled module stands for;
    ``pins`` is ``(ref, value)`` for each signal or memory value the
    emitter folded into another constant.  A guard holds no instance
    object: only scalars, types, code objects and shared objects reached
    through globals, modules or classes.
    """

    roots: Tuple[Any, ...]
    facts: Tuple[Tuple[Tuple[str, Any, Any], Any], ...]
    keep: Tuple[Any, ...]
    values: Tuple[Tuple[str, int], ...]
    pins: Tuple[Tuple[Tuple[str, int], Any], ...]


class Replay:
    """Re-reads guard facts on one design's own objects.

    The guards of one recipe key agree up to the fact where their designs
    first differ, and the analyser's next read depends only on the
    decisions it has read so far (a value is never more than a literal).
    So :meth:`match` reads each fact of the design once, and a later guard
    resumes where the facts read so far end.
    """

    def __init__(self, roots: Sequence[Any]) -> None:
        self.handles = _Handles(roots)
        #: The facts read from this design so far, as guards store them.
        self.read: List[Tuple[Tuple[str, Any, Any], Any]] = []

    def match(self, guard: Guard
              ) -> Optional[Tuple[List[Any], Tuple[int, ...]]]:
        """The design's objects by handle and its values, in the order of
        ``guard.values``, when every decision of ``guard`` reads the same
        on it and every value is a plain int; else None."""
        handles, read, facts = self.handles, self.read, guard.facts
        if handles.roots != guard.roots:
            return None
        common = min(len(read), len(facts))
        for index in range(common):
            if facts[index] != read[index] \
                    and not _typed(facts[index], read[index]):
                return None
        for fact in facts[common:]:
            op, source, arg = key = fact[0]
            try:
                value, shared = _OPS[op](handles.decode(source),
                                         handles.decode(arg))
            except Exception:  # user code raised: compile from scratch
                return None
            read.append((key, handles.summarise(op, value, shared)))
            if read[-1] != fact and not _typed(fact, read[-1]):
                return None
        objects = handles.objects
        for ref, pinned in guard.pins:
            value = _value(ref, objects, read)
            if type(value) is not type(pinned) or value != pinned:
                return None
        values = tuple(_value(ref, objects, read) for ref in guard.values)
        if not all(type(value) is int for value in values):
            return None
        return objects, values


class _IntRead:
    """The requests and literal notes of one ``attr`` fact that read a
    plain int from instance state."""

    __slots__ = ("index", "requests", "literals")

    def __init__(self, index: int) -> None:
        self.index = index
        self.requests = self.literals = 0


class Recorder(_Handles):
    """The one path through which the analyser reads instance state.

    Each read is memoised per design (``getattr_static`` is slow and a
    design's processes resolve the same chains many times) and logged as a
    fact for the design's :class:`Guard`.  An ``attr`` read of a plain int
    from instance state also counts its requests, memoised ones included,
    and the analyser reports each one it notes as a literal outside a
    truth test (:meth:`literal`); when the two counts agree the fact is a
    value fact.
    """

    def __init__(self, roots: Sequence[Any]) -> None:
        self._kept: Dict[int, Any] = {}
        super().__init__(roots, keep=self._kept)
        #: Guard key -> value: one fact per distinct read.
        self.memo: Dict[Tuple[str, Any, Any], Any] = {}
        #: ``(op, id(input), name)`` -> ``(input, value, int read)`` for
        #: the reads whose argument is a name, a flag or None (almost all
        #: of them): the entry holds its input, so the id stays that
        #: object's.
        self.by_id: Dict[Tuple[str, int, Any],
                         Tuple[Any, Any, Optional[_IntRead]]] = {}
        self.facts: List[Tuple[Tuple[str, Any, Any], Any]] = []
        #: Guard key -> the counts of each ``attr`` fact reading an int.
        self.ints: Dict[Tuple[str, Any, Any], _IntRead] = {}
        #: The counts of the latest read when it read such an int.
        self.last: Optional[_IntRead] = None
        #: False once a read's input was neither a handle nor a scalar.
        self.guardable = True

    def read(self, op: str, obj: Any, arg: Any = None) -> Any:
        fast = (op, id(obj), arg) if type(arg) in _FAST_ARGS else None
        if fast is not None:
            held = self.by_id.get(fast)
            if held is not None and held[0] is obj:
                int_read = self.last = held[2]
                if int_read is not None:
                    int_read.requests += 1
                return held[1]
        source, encoded_arg = self.encode(obj), self.encode(arg)
        if source is None or encoded_arg is None:
            self.guardable = False
            self.last = None
            return _OPS[op](obj, arg)[0]
        key = (op, source, encoded_arg)
        if key in self.memo:
            value = self.memo[key]
            int_read = self.ints.get(key)
        else:
            value, shared = _OPS[op](obj, arg)
            self.memo[key] = value
            int_read = None
            if op == "attr" and type(value) is int and not shared:
                int_read = self.ints[key] = _IntRead(len(self.facts))
            self.facts.append((key, self.summarise(op, value, shared)))
        if int_read is not None:
            int_read.requests += 1
        self.last = int_read
        if fast is not None:
            self.by_id[fast] = (obj, value, int_read)
        return value

    def literal(self, value: Any) -> Optional[int]:
        """Count ``value``, just returned by the latest read, as noted for
        a literal outside a truth test.  Returns the index of its fact
        when that read was an ``attr`` read of an int, else None."""
        int_read, self.last = self.last, None
        if int_read is None or self.facts[int_read.index][1][1] is not value:
            return None
        int_read.literals += 1
        return int_read.index

    def value_facts(self) -> Set[int]:
        """The indices of the facts that are values: every request of the
        read was a literal note outside a truth test."""
        return {int_read.index for int_read in self.ints.values()
                if int_read.literals == int_read.requests}

    def guard(self, values: Sequence[Tuple[str, int]],
              pinned: Iterable[Tuple[str, int]]) -> Guard:
        """The guard of this compile.  ``values`` are the refs the
        module's placeholders stand for; ``pinned`` the value refs the
        emitter folded into other constants, which stay compared by
        value."""
        pinned = set(pinned)
        facts = list(self.facts)
        for index in self.value_facts():
            if ("fact", index) not in pinned:
                facts[index] = (facts[index][0], _VALUE)
        return Guard(roots=self.roots, facts=tuple(facts),
                     keep=tuple(self._kept.values()), values=tuple(values),
                     pins=tuple((ref, _value(ref, self.objects, self.facts))
                                for ref in sorted(pinned)
                                if ref[0] != "fact"))

"""Hierarchical hardware components.

A :class:`Component` owns signals, child components and processes:

* *combinational processes* (registered with :meth:`Component.comb`) are
  plain callables re-evaluated until the signal network settles each cycle;
* *sequential processes* (registered with :meth:`Component.seq`) are called
  exactly once per clock cycle, after settling, and model clocked logic.

Components also carry the structural metadata the synthesis estimator needs:
declared state registers, memories, and an optional ``transparent`` flag for
pure wrappers (such as simple iterators) that dissolve at synthesis.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from . import signal as _signal_state
from .errors import ElaborationError
from .signal import REG, WIRE, Signal

Process = Callable[[], None]


class Memory:
    """A behavioural memory array owned by a component.

    The array is a plain Python list of ints; the declared ``depth`` and
    ``width`` are used by the synthesis estimator to decide whether the
    memory maps to block RAM or distributed/external storage.
    """

    def __init__(self, depth: int, width: int, name: str = "mem",
                 init: Optional[List[int]] = None) -> None:
        if depth < 1:
            raise ElaborationError(f"memory depth must be >= 1, got {depth}")
        if width < 1:
            raise ElaborationError(f"memory width must be >= 1, got {width}")
        self.depth = depth
        self.width = width
        self.name = name
        self._mask = (1 << width) - 1
        contents = list(init or [])
        if len(contents) > depth:
            raise ElaborationError(
                f"memory init has {len(contents)} words but depth is {depth}")
        self._data = [int(v) & self._mask for v in contents]
        self._data += [0] * (depth - len(self._data))
        self._init = list(self._data)
        #: Scheduler notified on writes (event-driven simulation).  Sensitivity
        #: is whole-memory: any write wakes every process that read the array.
        self._sched = None

    def __len__(self) -> int:
        return self.depth

    def __getitem__(self, addr: int) -> int:
        reads = _signal_state._active_reads
        if reads is not None:
            reads.add(self)
        return self._data[int(addr) % self.depth]

    def __setitem__(self, addr: int, value: int) -> None:
        self._data[int(addr) % self.depth] = int(value) & self._mask
        sched = self._sched
        if sched is not None:
            sched.notify_memory(self)

    def load(self, values: List[int], offset: int = 0) -> None:
        """Bulk-load ``values`` starting at ``offset`` (wrapping disallowed)."""
        if offset + len(values) > self.depth:
            raise ElaborationError("memory load exceeds depth")
        for i, value in enumerate(values):
            self[offset + i] = value

    def dump(self, start: int = 0, count: Optional[int] = None) -> List[int]:
        """Return a copy of ``count`` words starting at ``start``."""
        if count is None:
            count = self.depth - start
        return [self[start + i] for i in range(count)]

    def reset(self) -> None:
        """Restore initial contents."""
        self._data = list(self._init)
        sched = self._sched
        if sched is not None:
            sched.notify_memory(self)

    @property
    def bits(self) -> int:
        """Total number of storage bits."""
        return self.depth * self.width


class Component:
    """Base class for every hardware block in the library.

    Subclasses build their structure in ``__init__``: declare signals with
    :meth:`signal` / :meth:`state`, instantiate children with :meth:`child`,
    and register processes with :meth:`comb` and :meth:`seq`.
    """

    #: Pure wrappers (renaming/forwarding only) set this to True; the
    #: synthesis estimator then charges them zero resources, mirroring the
    #: paper's "iterators are dissolved at synthesis" observation.
    transparent: bool = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.parent: Optional["Component"] = None
        self._children: List[Component] = []
        self._child_names: Dict[str, Component] = {}
        self._signals: List[Signal] = []
        self._memories: List[Memory] = []
        self._comb_procs: List[Process] = []
        self._seq_procs: List[Process] = []

    # -- structure ------------------------------------------------------------

    def child(self, component: "Component") -> "Component":
        """Attach ``component`` as a child and return it."""
        if component.parent is not None:
            raise ElaborationError(
                f"component {component.name!r} already has a parent "
                f"({component.parent.name!r})")
        if component.name in self._child_names:
            raise ElaborationError(
                f"duplicate child name {component.name!r} under {self.name!r}")
        component.parent = self
        self._children.append(component)
        self._child_names[component.name] = component
        return component

    def get_child(self, name: str) -> "Component":
        """Return the direct child called ``name``."""
        try:
            return self._child_names[name]
        except KeyError:
            raise ElaborationError(
                f"{self.name!r} has no child named {name!r}") from None

    @property
    def children(self) -> List["Component"]:
        return list(self._children)

    def path(self) -> str:
        """Hierarchical path from the root, dot-separated."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path()}.{self.name}"

    def walk(self) -> Iterator["Component"]:
        """Depth-first iteration over this component and all descendants."""
        yield self
        for chl in self._children:
            yield from chl.walk()

    def find(self, path: str) -> "Component":
        """Look up a descendant by dot-separated relative path."""
        node: Component = self
        for part in path.split("."):
            node = node.get_child(part)
        return node

    # -- signals and memories ---------------------------------------------------

    def signal(self, width: int = 1, init: int = 0, name: str = "") -> Signal:
        """Declare a combinational (wire) signal owned by this component."""
        sig = Signal(width=width, init=init, name=name or f"{self.name}_w{len(self._signals)}",
                     kind=WIRE)
        self._signals.append(sig)
        return sig

    def state(self, width: int = 1, init: int = 0, name: str = "") -> Signal:
        """Declare a clocked register signal owned by this component."""
        sig = Signal(width=width, init=init, name=name or f"{self.name}_r{len(self._signals)}",
                     kind=REG)
        self._signals.append(sig)
        return sig

    def memory(self, depth: int, width: int, name: str = "",
               init: Optional[List[int]] = None) -> Memory:
        """Declare a behavioural memory array owned by this component."""
        mem = Memory(depth, width, name=name or f"{self.name}_mem{len(self._memories)}",
                     init=init)
        self._memories.append(mem)
        return mem

    def adopt_signal(self, sig: Signal) -> Signal:
        """Register an externally-created signal for tracing/estimation."""
        self._signals.append(sig)
        return sig

    @property
    def signals(self) -> List[Signal]:
        return list(self._signals)

    @property
    def memories(self) -> List[Memory]:
        return list(self._memories)

    def all_signals(self) -> List[Signal]:
        """All signals of this component and its descendants."""
        result: List[Signal] = []
        for comp in self.walk():
            result.extend(comp._signals)
        return result

    def all_memories(self) -> List[Memory]:
        """All memories of this component and its descendants."""
        result: List[Memory] = []
        for comp in self.walk():
            result.extend(comp._memories)
        return result

    # -- processes ----------------------------------------------------------------

    def comb(self, func: Process) -> Process:
        """Register (or decorate) a combinational process.

        The event-driven scheduler infers the process's input set by
        tracing its reads on every evaluation, so nothing is declared.
        """
        self._comb_procs.append(func)
        return func

    def seq(self, func: Process) -> Process:
        """Register (or decorate) a clocked process."""
        self._seq_procs.append(func)
        return func

    @property
    def comb_procs(self) -> List[Process]:
        return list(self._comb_procs)

    @property
    def seq_procs(self) -> List[Process]:
        return list(self._seq_procs)

    def all_comb_procs(self) -> List[Process]:
        result: List[Process] = []
        for comp in self.walk():
            result.extend(comp._comb_procs)
        return result

    def all_seq_procs(self) -> List[Process]:
        result: List[Process] = []
        for comp in self.walk():
            result.extend(comp._seq_procs)
        return result

    # -- structural queries used by the synthesis estimator --------------------------

    def state_bits(self) -> int:
        """Number of register bits declared directly by this component."""
        return sum(sig.width for sig in self._signals if sig.kind == REG)

    def memory_bits(self) -> int:
        """Number of memory bits declared directly by this component."""
        return sum(mem.bits for mem in self._memories)

    # -- misc -------------------------------------------------------------------------

    def reset_state(self) -> None:
        """Reset all signals and memories in the subtree to their initial values."""
        for comp in self.walk():
            for sig in comp._signals:
                sig.reset()
            for mem in comp._memories:
                mem.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path()}>"

"""Signals: the wires and registers of the RTL model.

A :class:`Signal` carries a fixed-width unsigned value.  Processes never
mutate the current value directly; they assign to :attr:`Signal.next` and the
simulator commits pending values at well-defined points (after each
combinational delta iteration and after the clocked processes of a cycle).
This mirrors the signal-update semantics of VHDL/Verilog and of MyHDL.

Two flavours exist:

* *wires* (``Signal(..., kind=WIRE)``): driven by combinational processes,
  they hold no state between cycles and do not map to flip-flops.
* *registers* (``Signal(..., kind=REG)`` or :meth:`Component.state`): driven
  by clocked processes, they represent flip-flops and are what the synthesis
  estimator counts as FFs.
"""

from __future__ import annotations

import itertools

from .bits import Bits, mask
from .errors import WidthError

WIRE = "wire"
REG = "reg"

_signal_ids = itertools.count()


class Signal:
    """A fixed-width signal with deferred (two-phase) assignment.

    Parameters
    ----------
    width:
        Bit width of the signal (>= 1).
    init:
        Initial (reset) value; wrapped to ``width`` bits.
    name:
        Optional human-readable name, used by traces and error messages.
    kind:
        ``WIRE`` for combinationally-driven nets, ``REG`` for clocked state.
    """

    __slots__ = ("width", "name", "kind", "init", "_value", "_next", "_uid",
                 "_mask", "_sched")

    def __init__(self, width: int = 1, init: int = 0,
                 name: str = "", kind: str = WIRE) -> None:
        if width < 1:
            raise WidthError(f"signal width must be >= 1, got {width}")
        if kind not in (WIRE, REG):
            raise WidthError(f"unknown signal kind {kind!r}")
        self.width = int(width)
        self.name = name or f"sig{next(_signal_ids)}"
        self.kind = kind
        self._mask = mask(self.width)
        self.init = int(init) & self._mask
        self._value = self.init
        self._next = self.init
        self._uid = next(_signal_ids)
        #: Compiled simulator this signal notifies on writes, or ``None``.
        self._sched = None

    # -- value access -------------------------------------------------------

    @property
    def value(self) -> int:
        """The committed value (what other processes observe this cycle)."""
        return self._value

    @property
    def bits(self) -> Bits:
        """The committed value wrapped in a :class:`Bits`."""
        return Bits(self.width, self._value)

    @property
    def next(self) -> int:
        """The pending value that will be committed at the next commit point."""
        return self._next

    @next.setter
    def next(self, value) -> None:
        self._next = int(value) & self._mask
        sched = self._sched
        if sched is not None:
            sched._written.append(self)

    def drive(self, value) -> None:
        """Alias for assigning :attr:`next`; reads better in some processes."""
        self.next = value

    # -- simulator hooks ------------------------------------------------------

    def commit(self) -> bool:
        """Publish the pending value.  Returns ``True`` if the value changed."""
        changed = self._next != self._value
        self._value = self._next
        return changed

    def reset(self) -> None:
        """Restore the initial value (both committed and pending)."""
        changed = self._value != self.init or self._next != self.init
        self._value = self.init
        self._next = self.init
        sched = self._sched
        if changed and sched is not None:
            sched.notify_changed(self)

    def force(self, value) -> None:
        """Set both committed and pending value immediately.

        Intended for test benches that need to poke a value outside the
        normal two-phase update discipline.
        """
        value = int(value) & self._mask
        if value == self._value and value == self._next:
            return
        self._value = value
        self._next = value
        sched = self._sched
        if sched is not None:
            sched.notify_changed(self)

    # -- conversions ----------------------------------------------------------

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __bool__(self) -> bool:
        return self._value != 0

    def __repr__(self) -> str:
        return (f"Signal({self.name!r}, width={self.width}, "
                f"value=0x{self._value:x}, kind={self.kind})")

    # -- comparisons read the committed value ---------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Signal):
            return self is other
        if isinstance(other, (int, Bits)):
            return self._value == int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._uid


def wire(width: int = 1, init: int = 0, name: str = "") -> Signal:
    """Convenience constructor for a combinational (wire) signal."""
    return Signal(width=width, init=init, name=name, kind=WIRE)


def register(width: int = 1, init: int = 0, name: str = "") -> Signal:
    """Convenience constructor for a clocked (register) signal."""
    return Signal(width=width, init=init, name=name, kind=REG)


class SignalBundle:
    """A named group of signals, used to model record-like port bundles.

    The bundle is a thin container: attribute access returns the underlying
    :class:`Signal` objects, and :meth:`signals` enumerates them for tracing
    and estimation.
    """

    def __init__(self, name: str = "bundle", **signals: Signal) -> None:
        self._name = name
        self._signals = dict(signals)
        for key, sig in signals.items():
            setattr(self, key, sig)

    @property
    def name(self) -> str:
        return self._name

    def signals(self) -> dict:
        """Return the mapping of field name to :class:`Signal`."""
        return dict(self._signals)

    def add(self, key: str, sig: Signal) -> Signal:
        """Add a named signal to the bundle and return it."""
        self._signals[key] = sig
        setattr(self, key, sig)
        return sig

    def __contains__(self, key: str) -> bool:
        return key in self._signals

    def __getitem__(self, key: str) -> Signal:
        return self._signals[key]

    def __iter__(self):
        return iter(self._signals.items())

    def __repr__(self) -> str:
        fields = ", ".join(sorted(self._signals))
        return f"SignalBundle({self._name!r}: {fields})"

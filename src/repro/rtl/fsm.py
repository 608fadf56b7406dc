"""Finite-state-machine helper.

The algorithms in the paper (stream copy, blur) are "implemented as a finite
state machine handling the buffer signals and sequencing the read and write
operations".  :class:`FSM` packages the recurring bookkeeping: symbolic state
names, a state register of the right width, and a record of the transitions
taken in simulation, for debugging and for the differential tests that
compare settle strategies.

The compiled simulator dissolves :meth:`FSM.goto` and :meth:`FSM.stay` in
the process bodies it specialises (:mod:`repro.rtl.compile`): a goto
becomes a write of the target's code to the state register's slot plus
one store into :attr:`FSM._transitions`, which the generated code binds
once.  So that dict is never rebound, and a goto records the same
``(source code, target code)`` key under every strategy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .bits import clog2
from .component import Component
from .errors import ElaborationError
from .signal import Signal


class FSM:
    """Symbolic state machine bound to a state register of a component.

    Usage::

        fsm = FSM(self, ["IDLE", "READ", "WRITE"], name="ctrl")
        ...
        @self.seq
        def control():
            if fsm.is_in("IDLE"):
                fsm.goto("READ")

    State names become attributes holding their binary encoding, so
    ``fsm.IDLE == 0``; the underlying register is :attr:`state`.  A state
    name may not shadow an attribute the FSM already has (``state``,
    ``goto``, ``width``, ...).
    """

    def __init__(self, component: Component, states: List[str],
                 initial: Optional[str] = None, name: str = "fsm") -> None:
        if not states:
            raise ElaborationError("an FSM needs at least one state")
        if len(set(states)) != len(states):
            raise ElaborationError(f"duplicate FSM state names in {states}")
        self.name = name
        self.states = list(states)
        self._encoding: Dict[str, int] = {s: i for i, s in enumerate(states)}
        initial = initial or states[0]
        if initial not in self._encoding:
            raise ElaborationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        width = clog2(len(states)) if len(states) > 1 else 1
        self.state: Signal = component.state(
            width=width, init=self._encoding[initial], name=f"{name}_state")
        #: ``(source code, target code)`` of every goto, in first-seen
        #: order (a dict used as an ordered set; never rebound).
        self._transitions: Dict[Tuple[int, int], None] = {}
        for state_name, code in self._encoding.items():
            if hasattr(type(self), state_name) or state_name in vars(self):
                raise ElaborationError(
                    f"FSM state name {state_name!r} collides with an "
                    f"attribute of FSM {name!r}")
            setattr(self, state_name, code)

    # -- encode / decode -------------------------------------------------------

    def encode(self, state_name: str) -> int:
        """Return the binary encoding of ``state_name``."""
        try:
            return self._encoding[state_name]
        except KeyError:
            raise ElaborationError(f"unknown FSM state {state_name!r}") from None

    def decode(self, code: int) -> str:
        """Return the state name for encoding ``code``."""
        code = int(code)
        if not 0 <= code < len(self.states):
            raise ElaborationError(f"no FSM state with encoding {code}")
        return self.states[code]

    @property
    def current(self) -> str:
        """The symbolic name of the current state."""
        return self.decode(self.state.value)

    # -- behaviour helpers (used inside sequential processes) -------------------

    def is_in(self, state_name: str) -> bool:
        """True when the committed state equals ``state_name``."""
        return self.state.value == self.encode(state_name)

    def goto(self, state_name: str) -> None:
        """Schedule a transition to ``state_name`` for the next cycle."""
        target = self.encode(state_name)
        self._transitions[self.state.value, target] = None
        self.state.next = target

    def stay(self) -> None:
        """Explicitly remain in the current state (self-loop)."""
        self.state.next = self.state.value

    # -- structural queries ------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def width(self) -> int:
        return self.state.width

    def observed_transitions(self) -> List[Tuple[str, str]]:
        """Distinct (source, target) transitions taken so far in simulation,
        in first-seen order.  Raises :class:`ElaborationError` when a
        transition left a code no state has (only :meth:`Signal.force` can
        put one in the register)."""
        return [(self.decode(source), self.decode(target))
                for source, target in self._transitions]

    def __repr__(self) -> str:
        return f"FSM({self.name!r}, states={self.states}, current={self.current!r})"

"""Constrained-random stimulus drivers for the library's interfaces.

Drivers are the active side of a verification session: each one owns a
named RNG stream (from :mod:`repro.verify.rng`) and forces the *input*
signals of one interface every cycle, within declarative constraints —
weighted operation mixes, bounded bursts and idle gaps, optional
protocol-violating attempts (pushing while not ready, popping while not
valid) so the monitors' backpressure rules actually get exercised.

The session loop drives the two-phase handshake explicitly::

    driver.drive(cycle)      # force inputs for this cycle
    sim.settle()             # combinational outputs now reflect them
    driver.observe(cycle)    # record what the DUT accepted
    ...                      # monitors sample, coverage samples
    sim.step()               # clock edge

Drivers use :meth:`Signal.force`, the sanctioned test-bench poke, so they
work identically under the fixpoint and compiled settle strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence


@dataclass
class StreamConstraints:
    """Shape of a constrained-random stream driver's activity.

    The driver alternates *bursts* (strobe asserted every cycle) and *idle
    gaps* (strobe deasserted), with lengths drawn uniformly from the given
    inclusive ranges.  ``blind_rate`` is the probability that a burst cycle
    strobes even though the DUT is not ready/valid — legal stimulus that
    the container must ignore, and the only way to reach the ``blocked``
    coverage bins (push attempted while full, pop while empty).
    """

    burst: Sequence[int] = (1, 6)
    gap: Sequence[int] = (0, 3)
    blind_rate: float = 1.0
    data_max: int = 255


@dataclass
class IteratorConstraints:
    """Operation mix of an iterator driver (weights need not sum to 1)."""

    weights: Dict[str, float] = field(default_factory=lambda: {
        "read": 4.0, "write": 4.0, "seek": 1.0, "move": 1.0})
    data_max: int = 255
    gap: Sequence[int] = (0, 2)


class _BurstSchedule:
    """Shared burst/gap state machine for stream-style drivers."""

    def __init__(self, rng: Random, constraints: StreamConstraints) -> None:
        self._rng = rng
        self._c = constraints
        self._burst_left = 0
        self._gap_left = 0

    def active(self) -> bool:
        """Advance one cycle; True when this cycle is a burst cycle."""
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        if self._gap_left > 0:
            self._gap_left -= 1
            return False
        self._burst_left = self._rng.randint(*self._c.burst) - 1
        self._gap_left = self._rng.randint(*self._c.gap)
        return True


class StreamPushDriver:
    """Drive the producer side of a :class:`StreamSinkIface` (data/push).

    ``data`` may be a pre-planned list (pipeline stimulus: pixels of a
    frame, consumed in order as the DUT accepts them) or ``None`` for fresh
    constrained-random values each accepted transfer.
    """

    def __init__(self, iface, rng: Random,
                 constraints: Optional[StreamConstraints] = None,
                 data: Optional[Sequence[int]] = None) -> None:
        self.iface = iface
        self.rng = rng
        self.constraints = constraints or StreamConstraints()
        self._schedule = _BurstSchedule(rng, self.constraints)
        self._planned: Optional[List[int]] = list(data) if data is not None else None
        self._current: Optional[int] = None
        self.sent: List[int] = []
        self.attempts = 0

    def _next_value(self) -> Optional[int]:
        if self._planned is not None:
            if not self._planned:
                return None
            return self._planned[0]
        return self.rng.randint(0, self.constraints.data_max)

    def drive(self, cycle: int) -> None:
        if self._current is None:
            if not self._schedule.active():
                self.iface.push.force(0)
                return
            value = self._next_value()
            if value is None:  # planned stimulus exhausted
                self.iface.push.force(0)
                return
            self._current = value
        if (not self.iface.ready.value
                and self.rng.random() >= self.constraints.blind_rate):
            # Politely wait for ready instead of strobing blind this cycle.
            self.iface.push.force(0)
            return
        self.iface.data.force(self._current)
        self.iface.push.force(1)
        self.attempts += 1

    def observe(self, cycle: int) -> None:
        if (self._current is not None and self.iface.push.value
                and self.iface.ready.value):
            self.sent.append(self._current)
            if self._planned is not None:
                self._planned.pop(0)
            self._current = None

    @property
    def remaining(self) -> Optional[int]:
        return len(self._planned) if self._planned is not None else None


class StreamPopDriver:
    """Drive the consumer side of a :class:`StreamSourceIface` (pop)."""

    def __init__(self, iface, rng: Random,
                 constraints: Optional[StreamConstraints] = None) -> None:
        self.iface = iface
        self.rng = rng
        self.constraints = constraints or StreamConstraints()
        self._schedule = _BurstSchedule(rng, self.constraints)
        self.received: List[int] = []
        self.attempts = 0

    def drive(self, cycle: int) -> None:
        if not self._schedule.active():
            self.iface.pop.force(0)
            return
        if (not self.iface.valid.value
                and self.rng.random() >= self.constraints.blind_rate):
            self.iface.pop.force(0)
            return
        self.iface.pop.force(1)
        self.attempts += 1

    def observe(self, cycle: int) -> None:
        if self.iface.pop.value and self.iface.valid.value:
            # Window sources carry a pixel column instead of a single
            # ``data`` signal; record the centre pixel there.  (Explicit
            # None checks: a Signal holding 0 is falsy.)
            data = getattr(self.iface, "data", None)
            if data is None:
                data = getattr(self.iface, "col_mid", None)
            self.received.append(data.value if data is not None else 0)


class RequestDriver:
    """Drive a bank of 1-bit request lines with random hold/idle spans.

    Each line independently alternates between an asserted span (the
    requester wanting the resource) and an idle span, with lengths drawn
    from the given inclusive ranges — producing the single-requester,
    contended and all-idle arbitration situations a covergroup wants to
    see.  The driver also counts, per line, how many request spans
    completed, so fairness checks have a denominator.
    """

    def __init__(self, requests, rng: Random,
                 hold: Sequence[int] = (1, 4),
                 idle: Sequence[int] = (0, 3)) -> None:
        self.requests = list(requests)
        self.rng = rng
        self.hold = hold
        self.idle = idle
        #: Per line: (asserted?, cycles left in the current span).
        self._state: List[List[int]] = [[0, 0] for _ in self.requests]
        self.spans: List[int] = [0] * len(self.requests)

    def drive(self, cycle: int) -> None:
        for i, line in enumerate(self.requests):
            asserted, left = self._state[i]
            if left <= 0:
                if asserted:
                    self.spans[i] += 1
                asserted = 0 if asserted else 1
                left = self.rng.randint(*(self.hold if asserted else self.idle))
                if asserted and left < 1:
                    left = 1
            self._state[i] = [asserted, left - 1]
            line.force(asserted)

    def observe(self, cycle: int) -> None:
        """Nothing to record: the monitor watches the grant side."""


class IteratorOpDriver:
    """Drive a :class:`IteratorIface` with a weighted operation mix.

    Follows the done-based protocol of Table 2: an operation's strobes are
    held until ``done`` pulses, then released for at least one cycle.
    Reads/writes start only when the matching ``can_read``/``can_write`` is
    high; ``seek`` targets a random position below ``capacity`` (seeking
    out of bounds is the monitor's business to flag, so the driver may be
    configured to try it via ``seek_overshoot``).
    """

    def __init__(self, iface, rng: Random, capacity: int,
                 constraints: Optional[IteratorConstraints] = None,
                 seek_overshoot: bool = False) -> None:
        self.iface = iface
        self.rng = rng
        self.capacity = capacity
        self.constraints = constraints or IteratorConstraints()
        self.seek_overshoot = seek_overshoot
        self._op: Optional[str] = None
        self._cooldown = 0
        self.completed: List[str] = []

    def _release(self) -> None:
        iface = self.iface
        iface.read.force(0)
        iface.write.force(0)
        iface.inc.force(0)
        iface.dec.force(0)
        iface.index.force(0)

    def _choose_op(self) -> Optional[str]:
        ops, weights = zip(*self.constraints.weights.items())
        op = self.rng.choices(ops, weights=weights)[0]
        if op == "read" and not self.iface.can_read.value:
            return None
        if op == "write" and not self.iface.can_write.value:
            return None
        return op

    def drive(self, cycle: int) -> None:
        if self._op is not None:
            return  # strobes held, waiting for done
        self._release()
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        op = self._choose_op()
        if op is None:
            return
        iface = self.iface
        if op == "read":
            iface.read.force(1)
            if self.rng.random() < 0.5:
                iface.inc.force(1)
        elif op == "write":
            iface.wdata.force(self.rng.randint(0, self.constraints.data_max))
            iface.write.force(1)
            if self.rng.random() < 0.5:
                iface.inc.force(1)
        elif op == "seek":
            limit = (2 * self.capacity if self.seek_overshoot
                     else self.capacity) - 1
            iface.pos.force(self.rng.randint(0, max(0, limit)))
            iface.index.force(1)
        else:  # move
            if self.rng.random() < 0.5:
                iface.inc.force(1)
            else:
                iface.dec.force(1)
        self._op = op

    def observe(self, cycle: int) -> None:
        # No forcing here: monitors sample after observe, so strobes must
        # stay as driven; the next drive() releases them.
        if self._op is not None and self.iface.done.value:
            self.completed.append(self._op)
            self._op = None
            self._cooldown = 1 + self.rng.randint(*self.constraints.gap)


class AssocOpDriver:
    """Drive an :class:`AssocIface` with lookups, inserts and removals.

    Keys are drawn from a deliberately small space (twice the capacity) so
    hits, misses, in-place updates and full-CAM inserts all occur within a
    short run.
    """

    def __init__(self, iface, rng: Random, capacity: int,
                 value_max: int = 255) -> None:
        self.iface = iface
        self.rng = rng
        self.capacity = capacity
        self.value_max = value_max
        self.key_space = max(2, 2 * capacity)
        self._op: Optional[str] = None
        self._cooldown = 0
        self.completed: List[str] = []

    def _release(self) -> None:
        iface = self.iface
        iface.lookup.force(0)
        iface.insert.force(0)
        iface.remove.force(0)

    def drive(self, cycle: int) -> None:
        if self._op is not None:
            return
        self._release()
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if self.rng.random() < 0.25:
            return  # idle cycle
        op = self.rng.choices(("lookup", "insert", "remove"),
                              weights=(3.0, 4.0, 2.0))[0]
        iface = self.iface
        key = self.rng.randrange(self.key_space)
        if op == "lookup":
            iface.key.force(key)
            iface.lookup.force(1)
        elif op == "insert":
            iface.insert_key.force(key)
            iface.insert_value.force(self.rng.randint(0, self.value_max))
            iface.insert.force(1)
        else:
            iface.remove_key.force(key)
            iface.remove.force(1)
        self._op = op

    def observe(self, cycle: int) -> None:
        # Strobes are released by the next drive(), never here (see above).
        # The one-cycle cooldown guarantees a strobe-free cycle between
        # operations, which the monitor uses to delimit transactions.
        if self._op is not None and self.iface.done.value:
            self.completed.append(self._op)
            self._op = None
            self._cooldown = 1

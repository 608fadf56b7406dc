"""Passive protocol monitors, attached through ``Simulator.add_watcher``.

A monitor never drives a signal.  It observes one interface at two points
of every cycle:

* ``pre_edge(cycle)`` — called by the session after the settle phase, when
  the driver-forced inputs and the DUT's combinational responses are both
  visible.  Handshake acceptance is decided here (``push & ready``,
  ``pop & valid``), golden models are fed, and data is compared.
* post-edge — the watcher callback the monitor registers with
  :meth:`Simulator.add_watcher`; it sees the settled state after the clock
  edge and checks the *transition*: occupancy bounds, element
  conservation, and stability of ``valid``/data across a cycle with no
  accepted pop.

Violations are collected (never raised mid-simulation) so one run reports
every broken rule; :func:`repro.verify.session.verify` decides whether to
raise.  Monitors detach cleanly via :meth:`Simulator.remove_watcher`, so a
simulator can be reused across sessions without accumulating watchers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .scoreboard import (
    AssocModel,
    LifoModel,
    LineBufferModel,
    StreamModel,
    VectorModel,
)


@dataclass
class Violation:
    """One broken protocol rule, with enough context to debug it."""

    cycle: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}: [{self.rule}] {self.message}"


class VerificationError(Exception):
    """Raised for an unknown verification target and for a monitor
    attached twice; violations themselves are collected, not raised."""


class ProtocolMonitor:
    """Base class: violation log, attach/detach, the two-phase hooks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.violations: List[Violation] = []
        self.transactions = 0
        self._sim = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, sim) -> "ProtocolMonitor":
        """Register the post-edge hook as a simulator watcher."""
        if self._sim is not None:
            raise VerificationError(f"monitor {self.name!r} already attached")
        sim.add_watcher(self._post_edge, on_reset=self.on_reset)
        self._sim = sim
        return self

    def detach(self) -> None:
        """Unregister from the simulator (idempotent)."""
        if self._sim is not None:
            self._sim.remove_watcher(self._post_edge)
            self._sim = None

    def on_reset(self) -> None:
        """Drop per-cycle sampling state (violations are kept)."""

    # -- reporting ---------------------------------------------------------

    def flag(self, cycle: int, rule: str, message: str) -> None:
        self.violations.append(Violation(cycle, f"{self.name}.{rule}", message))

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- hooks -------------------------------------------------------------

    def pre_edge(self, cycle: int) -> None:
        """Sample the settled pre-edge state (driver inputs + DUT outputs)."""

    def _post_edge(self, cycle: int) -> None:
        """Watcher: check the post-edge state against the pre-edge sample."""

    def observation(self) -> Dict[str, object]:
        """The most recent pre-edge sample, for covergroup sampling."""
        return {}


class StreamContainerMonitor(ProtocolMonitor):
    """Protocol + data checker for push/pop stream containers.

    Parameters
    ----------
    container:
        The DUT; its ``occupancy`` property anchors the conservation check.
    fill / drain:
        The sink-style and source-style interfaces to watch.  ``fill``
        exposes ``push``/``ready``/``data``; ``drain`` exposes
        ``pop``/``valid``/``data``.
    model:
        Golden :class:`~repro.verify.scoreboard.StreamModel`.
    max_occupancy:
        Upper bound for the occupancy rule.  SRAM bindings legitimately
        hold ``capacity + 2`` elements (holding + prefetch registers), so
        this is a parameter rather than ``container.capacity``.
    valid_stable / data_stable:
        Whether ``valid`` (and the presented data) must hold across a cycle
        with no accepted pop.  True for FIFO-ordered bindings; stacks may
        retract their visible top while spilling it to memory (SRAM
        binding) or replace it on a push (LIFO core).
    """

    def __init__(self, name: str, container, fill, drain,
                 model: StreamModel, max_occupancy: Optional[int] = None,
                 valid_stable: bool = True, data_stable: bool = True,
                 check_conservation: bool = True) -> None:
        super().__init__(name)
        self.container = container
        self.fill = fill
        self.drain = drain
        self.model = model
        self.max_occupancy = (container.capacity if max_occupancy is None
                              else max_occupancy)
        self.valid_stable = valid_stable
        self.data_stable = data_stable
        #: The stack-over-SRAM binding transiently "hides" an element while
        #: its FSM spills the visible top back to external memory, so its
        #: occupancy legitimately dips below pushes-minus-pops; such
        #: bindings disable the cycle-exact conservation rule and rely on
        #: the scoreboard's multiset conservation instead.
        self.check_conservation = check_conservation
        self._pre: Optional[dict] = None

    def on_reset(self) -> None:
        self._pre = None

    def pre_edge(self, cycle: int) -> None:
        fill, drain = self.fill, self.drain
        push = bool(fill.push.value)
        ready = bool(fill.ready.value)
        pop = bool(drain.pop.value)
        valid = bool(drain.valid.value)
        data_out = drain.data.value
        accepted_push = push and ready
        accepted_pop = pop and valid
        occupancy = self.container.occupancy

        # The drain must present the model's front element whenever valid.
        front = self.model.front()
        if valid:
            if front is not None and data_out != front:
                self.flag(cycle, "data-mismatch",
                          f"drain presents 0x{data_out:x}, golden front is "
                          f"0x{front:x}")
            elif self.model.order in ("fifo", "lifo") \
                    and self.model.occupancy == 0:
                self.flag(cycle, "phantom-valid",
                          "drain valid while the golden model is empty")

        # Transaction-by-transaction scoreboard update.  A pop consumes the
        # element *visible this cycle*, so it is applied before the push.
        if accepted_push and accepted_pop \
                and isinstance(self.model, LifoModel):
            # The LIFO core replaces its top on concurrent push+pop.
            error = self.model.replace_top(fill.data.value)
            if error:
                self.flag(cycle, "scoreboard", error)
        else:
            if accepted_pop:
                error = self.model.pop(data_out)
                if error:
                    self.flag(cycle, "scoreboard", error)
            if accepted_push:
                error = self.model.push(fill.data.value)
                if error:
                    self.flag(cycle, "scoreboard", error)
        self.transactions += int(accepted_push) + int(accepted_pop)

        self._pre = {
            "push": push, "ready": ready, "pop": pop, "valid": valid,
            "data_out": data_out, "occupancy": occupancy,
            "accepted_push": accepted_push, "accepted_pop": accepted_pop,
        }

    def _post_edge(self, cycle: int) -> None:
        pre = self._pre
        if pre is None:
            return
        occ = self.container.occupancy
        if not 0 <= occ <= self.max_occupancy:
            self.flag(cycle, "occupancy-bound",
                      f"occupancy {occ} outside [0, {self.max_occupancy}]")
        expected = (pre["occupancy"] + int(pre["accepted_push"])
                    - int(pre["accepted_pop"]))
        if self.check_conservation and occ != expected:
            self.flag(cycle, "conservation",
                      f"occupancy went {pre['occupancy']} -> {occ} but "
                      f"accepted {int(pre['accepted_push'])} push / "
                      f"{int(pre['accepted_pop'])} pop")
        if self.valid_stable and pre["valid"] and not pre["accepted_pop"] \
                and not self.drain.valid.value:
            self.flag(cycle, "valid-drop",
                      "valid deasserted with no accepted pop")
        if self.data_stable and pre["valid"] and not pre["accepted_pop"] \
                and not pre["accepted_push"] and self.drain.valid.value \
                and self.drain.data.value != pre["data_out"]:
            self.flag(cycle, "data-stability",
                      f"drain data changed 0x{pre['data_out']:x} -> "
                      f"0x{self.drain.data.value:x} with no accepted pop")
        self._pre = None

    def observation(self) -> Dict[str, object]:
        pre = self._pre or {}
        if not pre:
            return {}

        def state(strobe: str, status: str) -> str:
            if pre[strobe] and pre[status]:
                return "accept"
            if pre[strobe]:
                return "blocked"
            return "idle"

        if pre["ready"] and pre["valid"]:
            flow = "flowing"
        elif not pre["valid"]:
            flow = "drained"
        else:
            flow = "backpressured"
        return {
            "fill": state("push", "ready"),
            "drain": state("pop", "valid"),
            "flow": flow,
        }


class WindowBufferMonitor(ProtocolMonitor):
    """Checker for the 3-line-buffer read buffer's column window protocol."""

    def __init__(self, name: str, container, model: LineBufferModel) -> None:
        super().__init__(name)
        self.container = container
        self.model = model
        self._pre: Optional[dict] = None

    def on_reset(self) -> None:
        self._pre = None

    def pre_edge(self, cycle: int) -> None:
        fill = self.container.fill
        window = self.container.window
        push = bool(fill.push.value)
        ready = bool(fill.ready.value)
        pop = bool(window.pop.value)
        valid = bool(window.valid.value)
        accepted_push = push and ready
        accepted_pop = pop and valid

        warmed = bool(self.container.linebuf.window_valid.value)
        if valid and not warmed:
            self.flag(cycle, "premature-window",
                      "window valid before two lines were buffered")

        # Pop first: the column shown this cycle predates this cycle's push.
        if accepted_pop:
            error = self.model.pop_column(window.col_top.value,
                                          window.col_mid.value,
                                          window.col_bot.value)
            if error:
                self.flag(cycle, "column-mismatch", error)
        if accepted_push:
            self.model.push(fill.data.value)
        self.transactions += int(accepted_push) + int(accepted_pop)

        self._pre = {
            "push": push, "ready": ready, "pop": pop, "valid": valid,
            "warmed": warmed,
            "accepted_push": accepted_push, "accepted_pop": accepted_pop,
            "x": window.x.value,
        }

    def observation(self) -> Dict[str, object]:
        pre = self._pre or {}
        if not pre:
            return {}
        if pre["push"] and pre["ready"]:
            fill = "accept"
        elif pre["push"]:
            fill = "blocked"
        else:
            fill = "idle"
        return {
            "phase": "streaming" if pre["warmed"] else "warmup",
            "fill": fill,
            "window": "pop" if pre["accepted_pop"] else "hold",
            "x": pre["x"],
        }


class IteratorMonitor(ProtocolMonitor):
    """Protocol checker for the canonical done-based iterator interface."""

    def __init__(self, name: str, iface, capacity: int) -> None:
        super().__init__(name)
        self.iface = iface
        self.capacity = capacity
        self._outstanding = False
        self._retiring = False
        self._pre: Optional[dict] = None

    def on_reset(self) -> None:
        self._outstanding = False
        self._retiring = False
        self._pre = None

    def pre_edge(self, cycle: int) -> None:
        iface = self.iface
        strobed = bool(iface.read.value or iface.write.value
                       or iface.inc.value or iface.dec.value
                       or iface.index.value)
        done = bool(iface.done.value)
        if strobed and not self._outstanding:
            self._outstanding = True
            if iface.index.value and iface.pos.value >= self.capacity:
                self.flag(cycle, "seek-out-of-bounds",
                          f"index accepted position {iface.pos.value} >= "
                          f"capacity {self.capacity}")
        if done:
            if not (self._outstanding or self._retiring):
                self.flag(cycle, "done-without-op",
                          "done pulsed with no operation in flight")
            else:
                self.transactions += 1
            # The op retires; strobes may linger one more cycle by protocol.
            self._retiring = self._outstanding
            self._outstanding = False
        elif not strobed:
            self._retiring = False
        self._pre = {"strobed": strobed, "done": done,
                     "can_read": bool(iface.can_read.value),
                     "can_write": bool(iface.can_write.value)}

    def observation(self) -> Dict[str, object]:
        return dict(self._pre or {})


class RandomPortMonitor(ProtocolMonitor):
    """Checker for the random-access (``RandomIface``) done protocol.

    Tracks one access at a time: the request's address/direction/data are
    captured when ``en`` rises, reads are checked against the golden
    :class:`~repro.verify.scoreboard.VectorModel` in the ``done`` cycle,
    and writes update the model there.
    """

    def __init__(self, name: str, iface, model: VectorModel) -> None:
        super().__init__(name)
        self.iface = iface
        self.model = model
        self._request: Optional[dict] = None
        #: ("read"|"write", addr) of the most recently completed access,
        #: kept for covergroup sampling.
        self.last_access: Optional[tuple] = None

    def on_reset(self) -> None:
        self._request = None

    def pre_edge(self, cycle: int) -> None:
        iface = self.iface
        en = bool(iface.en.value)
        if en and self._request is None:
            self._request = {
                "addr": iface.addr.value,
                "we": bool(iface.we.value),
                "wdata": iface.wdata.value,
                "cycle": cycle,
            }
        elif not en and self._request is not None:
            self.flag(cycle, "dropped-request",
                      f"en deasserted before done (request started cycle "
                      f"{self._request['cycle']})")
            self._request = None
        if iface.done.value:
            request = self._request
            if request is None:
                self.flag(cycle, "done-without-request",
                          "done pulsed with no access in flight")
            else:
                if request["we"]:
                    self.model.write(request["addr"], request["wdata"])
                else:
                    error = self.model.read(request["addr"],
                                            iface.rdata.value)
                    if error:
                        self.flag(cycle, "read-mismatch", error)
                self.last_access = ("write" if request["we"] else "read",
                                    request["addr"])
                self.transactions += 1
                self._request = None


class AssocMonitor(ProtocolMonitor):
    """Checker + golden model for the associative-array interface."""

    def __init__(self, name: str, container, model: AssocModel) -> None:
        super().__init__(name)
        self.container = container
        self.model = model
        self._last_op: Optional[str] = None
        self._pre_occ = 0
        self._applied = False

    def on_reset(self) -> None:
        self._last_op = None
        self._applied = False

    def pre_edge(self, cycle: int) -> None:
        port = self.container.port
        self._last_op = None
        self._pre_occ = self.model.occupancy
        if port.lookup.value:
            key = port.key.value
            error = self.model.lookup(key, bool(port.found.value),
                                      port.value.value)
            if error:
                self.flag(cycle, "lookup-mismatch", error)
            self._last_op = ("lookup_hit" if key in self.model.entries
                            else "lookup_miss")
            self.transactions += 1
            self._applied = False
        elif port.insert.value:
            if not self._applied:
                kind = self.model.insert(port.insert_key.value,
                                         port.insert_value.value)
                self._last_op = f"insert_{kind}"
                self.transactions += 1
                self._applied = True
        elif port.remove.value:
            if not self._applied:
                hit = self.model.remove(port.remove_key.value)
                self._last_op = "remove_hit" if hit else "remove_miss"
                self.transactions += 1
                self._applied = True
        else:
            self._applied = False

    def _post_edge(self, cycle: int) -> None:
        occ = self.container.occupancy
        if occ != self.model.occupancy:
            self.flag(cycle, "occupancy-mismatch",
                      f"CAM holds {occ} entries, golden model "
                      f"{self.model.occupancy}")

    def observation(self) -> Dict[str, object]:
        if self._last_op is None:
            return {}
        # Fullness is the occupancy *before* the operation applied, so the
        # (insert_new, empty) cross combination is observable.
        return {"op": self._last_op, "fullness": self._pre_occ}


class WidthAdapterMonitor(ProtocolMonitor):
    """Checker for the metagen width converters (down- and up-conversion).

    The golden model is the converter's own
    :class:`~repro.metagen.width_adapter.WidthAdaptationPlan`: a *down*
    converter must emit exactly ``plan.split(element)`` (most significant
    beat first) for every accepted wide element, and an *up* converter must
    emit ``plan.join(beats)`` for every ``plan.beats`` accepted narrow
    beats.  The two sides of either converter are mutually exclusive by
    construction (load vs. shift phase), which the monitor also enforces.
    """

    def __init__(self, name: str, converter, direction: str) -> None:
        super().__init__(name)
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        self.converter = converter
        self.direction = direction
        self.plan = converter.plan
        if direction == "down":
            self._in_iface = converter.wide_in
            self._out_iface = converter.narrow_out
        else:
            self._in_iface = converter.narrow_in
            self._out_iface = converter.wide_out
        #: Values the output side still owes, in order.
        self._expected: List[int] = []
        #: Up-conversion only: beats collected toward the next element.
        self._beats: List[int] = []
        self._pre: Optional[dict] = None

    def on_reset(self) -> None:
        self._expected = []
        self._beats = []
        self._pre = None

    def pre_edge(self, cycle: int) -> None:
        inp, out = self._in_iface, self._out_iface
        push = bool(inp.push.value)
        ready = bool(inp.ready.value)
        pop = bool(out.pop.value)
        valid = bool(out.valid.value)
        accepted_in = push and ready
        accepted_out = pop and valid

        if ready and valid:
            self.flag(cycle, "phase-overlap",
                      "converter advertises ready and valid simultaneously")

        # Output first: what is visible this cycle predates this cycle's input.
        if accepted_out:
            if not self._expected:
                self.flag(cycle, "phantom-output",
                          f"output 0x{out.data.value:x} accepted with no "
                          f"element in flight")
            else:
                expected = self._expected.pop(0)
                if out.data.value != expected:
                    self.flag(cycle, "data-mismatch",
                              f"converter emitted 0x{out.data.value:x}, plan "
                              f"says 0x{expected:x}")
            self.transactions += 1
        if accepted_in:
            if self.direction == "down":
                self._expected.extend(self.plan.split(inp.data.value))
            else:
                self._beats.append(inp.data.value)
                if len(self._beats) == self.plan.beats:
                    self._expected.append(self.plan.join(self._beats))
                    self._beats = []
            self.transactions += 1

        # The covergroup phase reflects the converter's *pre-edge* hardware
        # state (the registers that gate ready/valid), not the scoreboard
        # queue — the queue already absorbed this cycle's transfers.
        if self.direction == "down":
            shifting = self.converter._remaining.value != 0
        else:
            shifting = self.converter._collected.value == self.plan.beats
        self._pre = {
            "push": push, "ready": ready, "pop": pop, "valid": valid,
            "data_out": out.data.value,
            "accepted_in": accepted_in, "accepted_out": accepted_out,
            "shifting": shifting,
        }

    def _post_edge(self, cycle: int) -> None:
        pre = self._pre
        if pre is None:
            return
        limit = self.plan.beats
        pending = len(self._expected) + len(self._beats)
        if pending > limit:
            self.flag(cycle, "overrun",
                      f"{pending} beats in flight, converter holds at most "
                      f"{limit}")
        if pre["valid"] and not pre["accepted_out"] \
                and self._out_iface.valid.value \
                and self._out_iface.data.value != pre["data_out"]:
            self.flag(cycle, "data-stability",
                      f"output changed 0x{pre['data_out']:x} -> "
                      f"0x{self._out_iface.data.value:x} with no accepted pop")
        self._pre = None

    def observation(self) -> Dict[str, object]:
        pre = self._pre or {}
        if not pre:
            return {}

        def state(strobe: str, status: str) -> str:
            if pre[strobe] and pre[status]:
                return "accept"
            if pre[strobe]:
                return "blocked"
            return "idle"

        return {
            "input": state("push", "ready"),
            "output": state("pop", "valid"),
            "phase": "shift" if pre["shifting"] else "load",
        }


class ArbiterMonitor(ProtocolMonitor):
    """Checker for the one-hot grant protocol of the arbiter primitives.

    Rules (both policies): grants are one-hot, a grant implies its request,
    ``busy`` mirrors "any grant", and ``grant_index`` names the granted
    requester.  Policy-specific rules: a fixed-priority arbiter must grant
    the lowest-index active request; a round-robin arbiter must hold a
    grant while the granted request persists (the transaction lock).
    """

    def __init__(self, name: str, arbiter, policy: str) -> None:
        super().__init__(name)
        if policy not in ("priority", "roundrobin"):
            raise ValueError(f"unknown arbiter policy {policy!r}")
        self.arbiter = arbiter
        self.policy = policy
        self._pre: Optional[dict] = None
        self._last_granted: Optional[int] = None

    def on_reset(self) -> None:
        self._pre = None
        self._last_granted = None

    def pre_edge(self, cycle: int) -> None:
        arb = self.arbiter
        requests = [bool(req.value) for req in arb.requests]
        grants = [bool(gnt.value) for gnt in arb.grants]
        granted = [i for i, g in enumerate(grants) if g]

        if len(granted) > 1:
            self.flag(cycle, "one-hot", f"multiple grants active: {granted}")
        for i in granted:
            if not requests[i]:
                self.flag(cycle, "grant-without-request",
                          f"requester {i} granted while not requesting")
        if bool(arb.busy.value) != bool(granted):
            self.flag(cycle, "busy-mismatch",
                      f"busy={int(arb.busy.value)} with grants {granted}")
        if granted and arb.grant_index.value != granted[0]:
            self.flag(cycle, "grant-index",
                      f"grant_index={arb.grant_index.value} but grant is "
                      f"{granted[0]}")
        if any(requests) and not granted:
            self.flag(cycle, "starvation",
                      "active requests but no grant (arbitration is "
                      "combinational)")

        winner = granted[0] if granted else None
        if self.policy == "priority" and winner is not None and any(requests):
            lowest = requests.index(True)
            if winner != lowest:
                self.flag(cycle, "priority-order",
                          f"granted {winner} while requester {lowest} "
                          f"(higher priority) is active")
        if self.policy == "roundrobin" and self._last_granted is not None:
            held = self._last_granted
            if requests[held] and winner != held:
                self.flag(cycle, "lock-broken",
                          f"grant moved {held} -> {winner} while requester "
                          f"{held} still active")

        if self._last_granted is not None and winner != self._last_granted:
            self.transactions += 1
        self._last_granted = winner
        self._pre = {
            "active": sum(requests),
            "winner": winner,
        }

    def observation(self) -> Dict[str, object]:
        pre = self._pre or {}
        if not pre:
            return {}
        return {
            "nreq": pre["active"],
            "grant": "idle" if pre["winner"] is None else f"g{pre['winner']}",
        }


class ExpectedStreamMonitor(ProtocolMonitor):
    """Pipeline-output checker: accepted sink pops must match a golden stream."""

    def __init__(self, name: str, drain, expected_model) -> None:
        super().__init__(name)
        self.drain = drain
        self.model = expected_model
        self._pre: Optional[dict] = None

    def on_reset(self) -> None:
        self._pre = None

    def pre_edge(self, cycle: int) -> None:
        pop = bool(self.drain.pop.value)
        valid = bool(self.drain.valid.value)
        if pop and valid:
            error = self.model.pop(self.drain.data.value)
            if error:
                self.flag(cycle, "golden-mismatch", error)
            self.transactions += 1
        self._pre = {"pop": pop, "valid": valid}

    def observation(self) -> Dict[str, object]:
        pre = self._pre or {}
        if not pre:
            return {}
        if pre["pop"] and pre["valid"]:
            out = "accept"
        elif pre["pop"]:
            out = "starved"
        else:
            out = "idle"
        return {"output": out}

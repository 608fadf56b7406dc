"""The stack container and its physical bindings.

Table 1 classifies the stack as a sequential container whose input traversal
is forward and whose output traversal is backward: elements pushed in order
``e0, e1, e2`` come back out as ``e2, e1, e0``.  The paper points out that
"stacks can also be implemented over FIFO cores" — in practice they map most
naturally onto LIFO cores or register files, and onto external RAM with a
stack-pointer FSM when capacity matters; all three bindings are provided.
"""

from __future__ import annotations

from ..container import Container, register_binding, register_kind, wrap_core
from ..interfaces import B, F, StreamSinkIface, StreamSourceIface
from ...primitives import AsyncSRAM, SyncLIFO
from ...rtl import FSM, clog2


@register_kind
class Stack(Container):
    """Abstract LIFO stack.

    Interfaces
    ----------
    sink:
        :class:`StreamSinkIface` — output iterators push elements here.
    source:
        :class:`StreamSourceIface` — input iterators pop elements here
        (most recently pushed element first).
    """

    kind = "stack"
    seq_read = F
    seq_write = B

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.sink = StreamSinkIface(self, width, name=f"{name}_sink")
        self.source = StreamSourceIface(self, width, name=f"{name}_source")


@register_binding
class StackLIFO(Stack):
    """Stack over an on-chip LIFO core: a pure wrapper."""

    binding = "lifo"
    transparent = True

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.lifo = self.child(SyncLIFO(f"{name}_lifo", depth=capacity, width=width))
        wrap_core(self, self.lifo, self.sink, self.source)

    @property
    def occupancy(self) -> int:
        return self.lifo.occupancy

    def snapshot(self) -> list:
        return self.lifo.contents()


@register_binding
class StackSRAM(Stack):
    """Stack over external static RAM with a stack-pointer FSM.

    Pushes write the held element at the stack pointer and increment it;
    pops prefetch the element below the stack pointer so the consumer sees
    single-cycle reads, exactly like the circular-buffer SRAM binding of the
    queue family.
    """

    binding = "sram"
    external_storage = True

    def __init__(self, name: str, width: int, capacity: int,
                 sram_latency: int = 2) -> None:
        super().__init__(name, width, capacity)
        self.sram = self.child(AsyncSRAM(
            f"{name}_sram", depth=capacity, width=width, latency=sram_latency))

        cnt_width = clog2(capacity + 1)
        # Stack pointer counts elements stored in SRAM (excluding prefetch).
        self._sp = self.state(cnt_width, name=f"{name}_sp")
        self._hold = self.state(width, name=f"{name}_hold")
        self._hold_valid = self.state(1, name=f"{name}_hold_valid")
        # Top-of-stack prefetch register.
        self._top = self.state(width, name=f"{name}_top")
        self._top_valid = self.state(1, name=f"{name}_top_valid")
        self._fsm = FSM(self, ["IDLE", "PUSH", "FETCH", "RELEASE"],
                        name=f"{name}_ctrl")

        @self.comb
        def handshake() -> None:
            # Full guard: accept a push only while the *logical* occupancy
            # (SRAM region + prefetched top + holding register) is below
            # capacity.  Without the occupancy term the stack pointer grows
            # past the SRAM region and wraps, silently overwriting the
            # bottom of the stack — found by the constrained-random
            # verification monitors (occupancy-bound rule).
            occupied = (self._sp.value + self._top_valid.value
                        + self._hold_valid.value)
            self.sink.ready.next = 0 if (self._hold_valid.value
                                         or occupied >= self.capacity) else 1
            self.source.valid.next = self._top_valid.value
            self.source.data.next = self._top.value

        @self.seq
        def control() -> None:
            fsm = self._fsm
            sp = self._sp.value
            hold_valid = self._hold_valid.value
            top_valid = self._top_valid.value

            # Acceptance mirrors the advertised ready (including the full
            # guard): a push is latched only when the handshake offered it.
            occupied = sp + top_valid + hold_valid
            if self.sink.push.value and not hold_valid \
                    and occupied < self.capacity:
                self._hold.next = self.sink.data.value
                self._hold_valid.next = 1
                hold_valid = True

            consumed = False
            if self.source.pop.value and top_valid:
                self._top_valid.next = 0
                consumed = True

            if fsm.is_in("IDLE"):
                # FSM decisions use only committed values: an element accepted
                # into the holding register this very cycle is handled next cycle.
                if self._hold_valid.value:
                    # A push supersedes the prefetched top: the new element
                    # becomes the top of stack.  Spill the current prefetch
                    # (if any) back by keeping it counted in SRAM order.
                    if top_valid and not consumed:
                        # Write the old top back first so ordering is kept.
                        self.sram.addr.next = sp % self.capacity
                        self.sram.wdata.next = self._top.value
                        self.sram.we.next = 1
                        self.sram.req.next = 1
                        self._top_valid.next = 0
                        fsm.goto("PUSH")
                    else:
                        # Promote the held element directly to the top register.
                        self._top.next = self._hold.value
                        self._top_valid.next = 1
                        self._hold_valid.next = 0
                        fsm.stay()
                elif not top_valid and sp > 0 and not consumed:
                    # Prefetch the element at the top of the SRAM region.
                    self.sram.addr.next = (sp - 1) % self.capacity
                    self.sram.we.next = 0
                    self.sram.req.next = 1
                    fsm.goto("FETCH")
            elif fsm.is_in("PUSH"):
                if self.sram.ack.value:
                    self._sp.next = sp + 1
                    # The held element now becomes the visible top of stack.
                    self._top.next = self._hold.value
                    self._top_valid.next = 1
                    self._hold_valid.next = 0
                    self.sram.req.next = 0
                    fsm.goto("RELEASE")
            elif fsm.is_in("FETCH"):
                if self.sram.ack.value:
                    self._top.next = self.sram.rdata.value
                    self._top_valid.next = 1
                    self._sp.next = sp - 1
                    self.sram.req.next = 0
                    fsm.goto("RELEASE")
            elif fsm.is_in("RELEASE"):
                if not self.sram.ack.value:
                    fsm.goto("IDLE")

    @property
    def occupancy(self) -> int:
        return (self._sp.value
                + (1 if self._top_valid.value else 0)
                + (1 if self._hold_valid.value else 0))

    def snapshot(self) -> list:
        """Contents from bottom to top (holding register counts as topmost)."""
        items = [self.sram.read_word(i) for i in range(self._sp.value)]
        if self._top_valid.value:
            items.append(self._top.value)
        if self._hold_valid.value:
            items.append(self._hold.value)
        return items

"""The queue container and its physical bindings.

A queue is a general FIFO-ordered container whose *both* ends face the
algorithm side: producers push through output iterators and consumers pop
through input iterators, both traversing forward (Table 1: sequential F/F).
The paper notes queues map most efficiently onto FIFO cores but "the same
queue over an external RAM" may lower overall system cost.
"""

from __future__ import annotations

from ..container import (Container, forward, register_binding, register_kind,
                         wrap_core)
from ..interfaces import F, StreamSinkIface, StreamSourceIface
from ...primitives import SyncFIFO
from ...verify import mutate
from .circular_sram import CircularBufferSRAM


@register_kind
class Queue(Container):
    """Abstract FIFO-ordered queue.

    Interfaces
    ----------
    sink:
        :class:`StreamSinkIface` — output iterators push elements here.
    source:
        :class:`StreamSourceIface` — input iterators pop elements here.
    """

    kind = "queue"
    seq_read = F
    seq_write = F

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.sink = StreamSinkIface(self, width, name=f"{name}_sink")
        self.source = StreamSourceIface(self, width, name=f"{name}_source")


@register_binding
class QueueFIFO(Queue):
    """Queue over an on-chip FIFO core ("the most efficient implementation")."""

    binding = "fifo"
    transparent = True

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.fifo = self.child(SyncFIFO(f"{name}_fifo", depth=capacity, width=width))

        # Construction-time mutation switch (see repro.verify.mutate).
        if mutate.enabled("queue.ready_when_full"):
            @self.comb
            def wrap_always_ready() -> None:
                # MUTATED (test-only): advertises ready even when full, so
                # accepted pushes are silently dropped by the guarded FIFO.
                self.fifo.din.next = self.sink.data.value
                self.fifo.push.next = self.sink.push.value
                self.sink.ready.next = 1
                self.source.data.next = self.fifo.dout.value
                self.source.valid.next = 0 if self.fifo.empty.value else 1
                self.fifo.pop.next = self.source.pop.value
        else:
            wrap_core(self, self.fifo, self.sink, self.source)

    @property
    def occupancy(self) -> int:
        return self.fifo.occupancy

    def snapshot(self) -> list:
        return self.fifo.contents()


@register_binding
class QueueSRAM(Queue):
    """Queue over external static RAM ("may lower the overall system cost")."""

    binding = "sram"
    external_storage = True
    transparent = True

    def __init__(self, name: str, width: int, capacity: int,
                 sram_latency: int = 2) -> None:
        super().__init__(name, width, capacity)
        self.buffer = self.child(CircularBufferSRAM(
            f"{name}_cbuf", capacity=capacity, width=width,
            sram_latency=sram_latency))
        forward(self, self.sink, self.source, self.buffer)

    @property
    def occupancy(self) -> int:
        return self.buffer.occupancy

    def snapshot(self) -> list:
        return self.buffer.snapshot()

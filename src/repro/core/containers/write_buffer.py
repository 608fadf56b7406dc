"""The write-buffer container and its physical bindings.

A write buffer is the container used "to accommodate the output video
stream": algorithms write it sequentially forward through an output iterator,
and the environment (VGA coder) drains it.  Table 1 classifies it as
sequential-output, forward-only.
"""

from __future__ import annotations

from ..container import (Container, forward, register_binding, register_kind,
                         wrap_core)
from ..interfaces import F, NONE, StreamSinkIface, StreamSourceIface
from ...primitives import SyncFIFO
from .circular_sram import CircularBufferSRAM


@register_kind
class WriteBuffer(Container):
    """Abstract write buffer: written by algorithms, drained by the environment.

    Interfaces
    ----------
    sink:
        :class:`StreamSinkIface` — iterators push elements here.
    drain:
        :class:`StreamSourceIface` — the environment (e.g. the VGA coder
        back-end) pulls elements from here.
    """

    kind = "write_buffer"
    seq_read = NONE
    seq_write = F

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.sink = StreamSinkIface(self, width, name=f"{name}_sink")
        self.drain = StreamSourceIface(self, width, name=f"{name}_drain")


@register_binding
class WriteBufferFIFO(WriteBuffer):
    """Write buffer over an on-chip FIFO core: a pure wrapper around the core."""

    binding = "fifo"
    transparent = True

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.fifo = self.child(SyncFIFO(f"{name}_fifo", depth=capacity, width=width))
        wrap_core(self, self.fifo, self.sink, self.drain)

    @property
    def occupancy(self) -> int:
        return self.fifo.occupancy

    def snapshot(self) -> list:
        return self.fifo.contents()


@register_binding
class WriteBufferSRAM(WriteBuffer):
    """Write buffer over external static RAM (circular buffer + pointer FSM)."""

    binding = "sram"
    external_storage = True
    transparent = True

    def __init__(self, name: str, width: int, capacity: int,
                 sram_latency: int = 2) -> None:
        super().__init__(name, width, capacity)
        self.buffer = self.child(CircularBufferSRAM(
            f"{name}_cbuf", capacity=capacity, width=width,
            sram_latency=sram_latency))
        forward(self, self.sink, self.drain, self.buffer)

    @property
    def occupancy(self) -> int:
        return self.buffer.occupancy

    def snapshot(self) -> list:
        return self.buffer.snapshot()

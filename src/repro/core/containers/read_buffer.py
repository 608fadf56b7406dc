"""The read-buffer container and its physical bindings.

A read buffer is the container used "to acquire the video stream": the
environment (video decoder) fills it, and algorithms read it sequentially
forward through an input iterator.  Table 1 classifies it as
sequential-input, forward-only.

Bindings provided (Section 3.4): on-chip FIFO core (``"fifo"``), external
static RAM (``"sram"``, Figure 5) and the special 3-line buffer used by the
blur design (``"linebuffer3"``).
"""

from __future__ import annotations

from ..container import (Container, forward, register_binding, register_kind,
                         wrap_core)
from ..interfaces import F, NONE, StreamSinkIface, StreamSourceIface, WindowSourceIface
from ...primitives import LineBuffer3, SyncFIFO
from ...rtl import clog2
from .circular_sram import CircularBufferSRAM


@register_kind
class ReadBuffer(Container):
    """Abstract read buffer: filled by the environment, read by algorithms.

    Interfaces
    ----------
    fill:
        :class:`StreamSinkIface` — the environment (e.g. the video decoder
        front-end) pushes elements here.
    source:
        :class:`StreamSourceIface` — iterators read elements here.
    """

    kind = "read_buffer"
    seq_read = F
    seq_write = NONE

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.fill = StreamSinkIface(self, width, name=f"{name}_fill")
        self.source = StreamSourceIface(self, width, name=f"{name}_source")


@register_binding
class ReadBufferFIFO(ReadBuffer):
    """Read buffer over an on-chip FIFO core (Figure 4).

    The container architecture "is simply a wrapper of the FIFO core and
    hardly includes any logic": all glue is combinational renaming, so the
    container itself is marked transparent and only the FIFO contributes
    resources.
    """

    binding = "fifo"
    transparent = True

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name, width, capacity)
        self.fifo = self.child(SyncFIFO(f"{name}_fifo", depth=capacity, width=width))
        wrap_core(self, self.fifo, self.fill, self.source)

    @property
    def occupancy(self) -> int:
        return self.fifo.occupancy

    def snapshot(self) -> list:
        return self.fifo.contents()


@register_binding
class ReadBufferSRAM(ReadBuffer):
    """Read buffer over external static RAM (Figure 5).

    The element stream lives in a circular buffer held in off-chip SRAM, so
    the binding uses no block RAM ("the SRAM implementation is much smaller,
    but performance will depend on memory access times").
    """

    binding = "sram"
    external_storage = True
    transparent = True

    def __init__(self, name: str, width: int, capacity: int,
                 sram_latency: int = 2) -> None:
        super().__init__(name, width, capacity)
        self.buffer = self.child(CircularBufferSRAM(
            f"{name}_cbuf", capacity=capacity, width=width,
            sram_latency=sram_latency))
        forward(self, self.fill, self.source, self.buffer)

    @property
    def occupancy(self) -> int:
        return self.buffer.occupancy

    def snapshot(self) -> list:
        return self.buffer.snapshot()


@register_binding
class ReadBufferLine3(ReadBuffer):
    """Read buffer over a 3-line buffer, delivering vertical pixel columns.

    Used by the blur design: "the rbuffer container, instead of a simple FIFO
    has been mapped over a special one ... structured to provide 3 pixels in
    a column for each access".  Besides the ordinary ``source`` interface
    (which carries the centre pixel), it exposes ``window`` with the full
    column so a window iterator can feed a convolution algorithm.
    """

    binding = "linebuffer3"

    def __init__(self, name: str, width: int, line_width: int) -> None:
        super().__init__(name, width, capacity=2 * line_width)
        self.line_width = line_width
        self.linebuf = self.child(LineBuffer3(
            f"{name}_lb3", line_width=line_width, width=width))
        self.window = WindowSourceIface(
            self, width, x_width=clog2(line_width), name=f"{name}_window")

        # One-element holding register decoupling the environment push rate
        # from the algorithm pop rate.
        self._hold = self.state(width, name=f"{name}_hold")
        self._hold_valid = self.state(1, name=f"{name}_hold_valid")

        @self.comb
        def wrap() -> None:
            hold_valid = self._hold_valid.value
            warmed_up = self.linebuf.window_valid.value

            # The held pixel is offered to the line buffer; during warm-up
            # (first two lines) it is consumed automatically, afterwards only
            # when the algorithm pops a column.
            self.linebuf.din.next = self._hold.value
            advance = hold_valid and (not warmed_up
                                      or self.window.pop.value
                                      or self.source.pop.value)
            self.linebuf.push.next = 1 if advance else 0

            # Pass-through acceptance: a new pixel can be taken in the same
            # cycle the held one advances, sustaining one pixel per clock
            # ("ideally a new filtered pixel can be generated at each clock
            # cycle").
            self.fill.ready.next = 1 if (not hold_valid or advance) else 0

            column_ready = 1 if (hold_valid and warmed_up) else 0
            self.window.valid.next = column_ready
            self.window.col_top.next = self.linebuf.col_top.value
            self.window.col_mid.next = self.linebuf.col_mid.value
            self.window.col_bot.next = self.linebuf.col_bot.value
            self.window.x.next = self.linebuf.x.value

            # The plain source interface exposes the centre pixel of the
            # column, so ordinary forward iterators still work over this
            # binding.
            self.source.valid.next = column_ready
            self.source.data.next = self.linebuf.col_mid.value

        @self.seq
        def hold_control() -> None:
            hold_valid = self._hold_valid.value
            warmed_up = self.linebuf.window_valid.value
            advance = hold_valid and (not warmed_up
                                      or self.window.pop.value
                                      or self.source.pop.value)
            accepted = self.fill.push.value and (not hold_valid or advance)
            if accepted:
                self._hold.next = self.fill.data.value
                self._hold_valid.next = 1
            elif advance:
                self._hold_valid.next = 0

    @property
    def occupancy(self) -> int:
        return 1 if self._hold_valid.value else 0

    def snapshot(self) -> list:
        return [self._hold.value] if self._hold_valid.value else []

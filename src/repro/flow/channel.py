"""Typed stream channels: the edges of an elaborated pipeline graph.

A :class:`StreamChannel` is the physical form of one graph edge — an elastic
first-word-fall-through FIFO with a :class:`~repro.core.interfaces.StreamSinkIface`
facing the producer and a :class:`~repro.core.interfaces.StreamSourceIface`
facing the consumer.  Like the shipped queue container it is a pure wrapper
around the :class:`~repro.primitives.fifo.SyncFIFO` core (``transparent``:
the glue dissolves at synthesis, only the FIFO macro remains), which also
means every edge of a pipeline can be watched by the *same* protocol
monitors and golden models the verification subsystem uses for containers.

Depth-0 edges ("wires") are not built from this class at all — the
elaborator forwards the endpoint interfaces combinationally, adding zero
cycles of latency, which is what makes the legacy ``VideoSystem`` wiring a
two-wire-edge special case of a pipeline graph.
"""

from __future__ import annotations

from ..core.container import wrap_core
from ..core.interfaces import StreamSinkIface, StreamSourceIface
from ..primitives import SyncFIFO
from ..rtl import Component


class StreamChannel(Component):
    """One elastic FIFO edge of an elaborated pipeline.

    Parameters
    ----------
    width:
        Element width in bits.  The elaborator sizes channels to the edge's
        *bus* width, so a width-adapted edge buffers narrow beats, not wide
        elements.
    depth:
        FIFO depth in elements (>= 2, the :class:`SyncFIFO` minimum).
    """

    transparent = True

    def __init__(self, name: str, width: int, depth: int) -> None:
        super().__init__(name)
        if depth < 2:
            raise ValueError(
                f"channel {name!r}: FIFO depth must be >= 2, got {depth} "
                f"(use depth=0 for a combinational wire edge)")
        self.width = width
        self.depth = depth
        #: Logical capacity, mirroring the container API the stream
        #: monitors expect (occupancy must stay within [0, capacity]).
        self.capacity = depth
        self.fill = StreamSinkIface(self, width, name=f"{name}_fill")
        self.drain = StreamSourceIface(self, width, name=f"{name}_drain")
        self.fifo = self.child(SyncFIFO(f"{name}_fifo", depth=depth, width=width))
        wrap_core(self, self.fifo, self.fill, self.drain)

    @property
    def occupancy(self) -> int:
        """Number of elements currently buffered."""
        return self.fifo.occupancy

    def snapshot(self) -> list:
        """A copy of the buffered elements, head first."""
        return self.fifo.contents()

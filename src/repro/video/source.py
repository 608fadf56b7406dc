"""Video stream source: the camera + video decoder stand-in.

The original system front-end is a camera feeding a SAA711x-style video
decoder that produces a raster-scanned pixel stream.  This component plays
that role: it holds one or more frames and pushes their pixels, in raster
order, into the ``fill`` interface of a read-buffer container, honouring the
container's back-pressure (``ready``).

An optional ``stall_period`` inserts idle cycles between pixels, modelling a
pixel clock slower than the system clock — useful to check that the designs
are latency-insensitive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.interfaces import StreamSinkIface
from ..rtl import Component
from .frames import Frame, flatten


class VideoStreamSource(Component):
    """Push frames, pixel by pixel, into a stream sink interface.

    Parameters
    ----------
    sink:
        The ``fill`` interface of a read-buffer container (or any
        :class:`StreamSinkIface`).
    frames:
        Frames to send, in order.  More can be queued later with
        :meth:`queue_frame`.
    stall_period:
        If greater than zero, one pixel is offered only every
        ``stall_period + 1`` cycles.
    """

    def __init__(self, name: str, sink: StreamSinkIface,
                 frames: Optional[Sequence[Frame]] = None,
                 stall_period: int = 0) -> None:
        super().__init__(name)
        self.sink = sink
        self.stall_period = stall_period
        self._pixels: List[int] = []
        self._frames_queued = 0
        for frame in frames or []:
            self.queue_frame(frame)

        self._index = self.state(32, name=f"{name}_index")
        self._stall = self.state(16, name=f"{name}_stall")
        self.pixels_sent = self.state(32, name=f"{name}_pixels_sent")
        # Sensitivity anchor: ``drive`` depends on the *length* of the
        # Python-level pixel queue, which no settle schedule can see.  The
        # anchor signal is read by ``drive`` (so the compiled schedule
        # records the dependency) and forced whenever the queue grows (so
        # the next clock edge re-settles and ``drive`` sees the new pixels);
        # its value itself is never used.
        self._queued = self.signal(32, init=len(self._pixels) & 0xFFFFFFFF,
                                   name=f"{name}_queued")

        @self.comb
        def drive() -> None:
            self._queued.value  # sensitivity anchor (see above)
            index = self._index.value
            have_pixel = index < len(self._pixels)
            stalled = self._stall.value != 0
            offer = have_pixel and not stalled
            self.sink.push.next = 1 if offer else 0
            self.sink.data.next = self._pixels[index] if have_pixel else 0

        @self.seq
        def advance() -> None:
            index = self._index.value
            have_pixel = index < len(self._pixels)
            stalled = self._stall.value != 0
            if stalled:
                self._stall.next = self._stall.value - 1
                return
            if have_pixel and self.sink.ready.value:
                self._index.next = index + 1
                self.pixels_sent.next = self.pixels_sent.value + 1
                if self.stall_period > 0:
                    self._stall.next = self.stall_period

    # -- stimulus management --------------------------------------------------------

    def queue_frame(self, frame: Frame) -> None:
        """Append a frame to the transmit queue (also allowed mid-simulation)."""
        self._pixels.extend(flatten(frame))
        self._frames_queued += 1
        self._notify_queued()

    def queue_pixels(self, pixels: Sequence[int]) -> None:
        """Append raw pixel words to the transmit queue."""
        self._pixels.extend(int(p) for p in pixels)
        self._notify_queued()

    def _notify_queued(self) -> None:
        """Wake ``drive`` after the pixel queue grew (see ``_queued``)."""
        anchor = getattr(self, "_queued", None)
        if anchor is not None:
            anchor.force(len(self._pixels) & 0xFFFFFFFF)

    @property
    def exhausted(self) -> bool:
        """True when every queued pixel has been accepted by the container."""
        return self._index.value >= len(self._pixels)

    @property
    def total_pixels(self) -> int:
        """Number of pixels queued so far."""
        return len(self._pixels)

"""3x3 blur (box) filter over a window iterator.

The third design of Table 3: "we have implemented a blur filter that
processes an image coming from the video decoder and sends it to a VGA coder
... ideally a new filtered pixel can be generated at each clock cycle."

The algorithm consumes one vertical 3-pixel column per step from a window
iterator (backed by the 3-line-buffer container binding), keeps the two
previous columns in registers, and emits the mean of the 3x3 neighbourhood —
``floor(sum / 9)`` — through an ordinary forward output iterator.  Output
pixels are produced for every fully-interior window, so a ``H x W`` input
frame yields a ``(H-2) x (W-2)`` output frame in raster order.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..interfaces import WindowIteratorIface
from ..iterator import HardwareIterator
from .base import Algorithm
from ...rtl import clog2


def blur_kernel(window: list) -> int:
    """Reference 3x3 box filter: floor of the mean of nine pixel values.

    ``window`` is any iterable of nine unsigned pixel values.  Both the
    hardware algorithm and the software golden model use this function, so
    the simulated output can be compared bit-exactly.
    """
    values = list(window)
    if len(values) != 9:
        raise ValueError(f"blur kernel expects 9 pixels, got {len(values)}")
    return sum(values) // 9


class Window3x3Algorithm(Algorithm):
    """Streaming 3x3 window datapath: one output pixel per accepted column.

    Consumes one vertical 3-pixel column per step from a window iterator,
    keeps the two previous columns in registers, and writes
    ``pixel(window)`` through a forward output iterator for every
    fully-interior window.  ``window`` holds the nine pixels column-major,
    oldest column first, top to bottom.  The blur and the general
    convolution differ only in ``pixel``.

    Parameters
    ----------
    win_it:
        A window iterator (``rdata_top``/``rdata_mid``/``rdata_bot``) over a
        3-line-buffer read buffer.
    out_it:
        A forward output iterator for the filtered pixel stream.
    line_width:
        Width in pixels of the input lines; used to restart the horizontal
        column history at each new line.
    pixel:
        The output pixel of a nine-pixel window.
    max_count:
        Optional budget of *output* pixels, after which ``finished`` rises.
    """

    def __init__(self, name: str, win_it: HardwareIterator, out_it: HardwareIterator,
                 line_width: int, pixel: Callable[[list], int],
                 max_count: Optional[int] = None) -> None:
        super().__init__(name, max_count=max_count)
        if not isinstance(win_it.iface, WindowIteratorIface):
            raise TypeError(f"{type(self).__name__} needs a window iterator "
                            "(rdata_top/mid/bot) on its input side")
        if line_width < 3:
            raise ValueError(f"line width must be >= 3 for a 3x3 filter, got {line_width}")
        self.in_it = win_it
        self.out_it = out_it
        self.line_width = line_width
        src = win_it.iface
        dst = out_it.iface
        self._check_iterator(dst, needs_write=True, role="output iterator")
        width = src.width

        # Column history: [0] is the oldest column, [1] the previous one; the
        # newest column arrives combinationally from the window iterator.
        self._hist = [
            [self.state(width, name=f"{name}_c{col}_{row}") for row in range(3)]
            for col in range(2)
        ]
        self._x = self.state(clog2(max(2, line_width)), name=f"{name}_x")

        @self.comb
        def datapath() -> None:
            x = self._x.value
            emit_needed = x >= 2
            can_consume = src.can_read.value and self._budget_open()
            if emit_needed:
                can_consume = can_consume and dst.can_write.value
            strobe = 1 if can_consume else 0

            src.read.next = strobe
            src.inc.next = strobe
            dst.write.next = strobe if emit_needed else 0
            dst.inc.next = strobe if emit_needed else 0

            window = [reg.value for col in self._hist for reg in col]
            window += [src.rdata_top.value, src.rdata_mid.value, src.rdata_bot.value]
            dst.wdata.next = pixel(window)

        @self.seq
        def control() -> None:
            x = self._x.value
            emit_needed = x >= 2
            can_consume = src.can_read.value and self._budget_open()
            if emit_needed:
                can_consume = can_consume and dst.can_write.value
            if not can_consume:
                return
            # Shift the column history and advance the horizontal position.
            for row in range(3):
                self._hist[0][row].next = self._hist[1][row].value
            self._hist[1][0].next = src.rdata_top.value
            self._hist[1][1].next = src.rdata_mid.value
            self._hist[1][2].next = src.rdata_bot.value
            if x + 1 >= self.line_width:
                self._x.next = 0
            else:
                self._x.next = x + 1
            if emit_needed:
                self._account(1)


class BlurAlgorithm(Window3x3Algorithm):
    """Streaming 3x3 box blur: a :class:`Window3x3Algorithm` whose output
    pixel is :func:`blur_kernel` of the window (parameters as there,
    without ``pixel``)."""

    #: LUT cost hint of the 9-input adder tree plus the divide-by-9 constant
    #: multiplier, consumed by the synthesis estimator.
    logic_cost_luts = 96

    def __init__(self, name: str, win_it: HardwareIterator, out_it: HardwareIterator,
                 line_width: int, max_count: Optional[int] = None) -> None:
        super().__init__(name, win_it, out_it, line_width, blur_kernel,
                         max_count=max_count)

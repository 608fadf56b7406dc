"""General 3x3 convolution filter over a window iterator.

The paper's conclusions ask for domain libraries with "common algorithms
(convolution filters, image labelling ...) and specialized iterators".  This
component generalises the box blur to an arbitrary 3x3 kernel with
hardware-friendly normalisation (a right shift) and saturation, reusing the
exact same window-iterator interface — so sharpening, edge detection or
Gaussian-like smoothing are all obtained by changing constants, not
structure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..iterator import HardwareIterator
from .blur import Window3x3Algorithm


class Kernel3x3:
    """A 3x3 integer convolution kernel with shift normalisation.

    The response is ``clamp((sum(w_i * p_i) + rounding) >> shift)`` with the
    result clamped to the pixel range — the standard fixed-point formulation
    a synthesis tool maps onto multipliers/adders and a shifter.
    """

    def __init__(self, weights: Sequence[int], shift: int = 0,
                 name: str = "kernel") -> None:
        weights = list(weights)
        if len(weights) != 9:
            raise ValueError(f"a 3x3 kernel needs 9 weights, got {len(weights)}")
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
        self.weights = weights
        self.shift = shift
        self.name = name

    def apply(self, window: Sequence[int], max_value: int) -> int:
        """Evaluate the kernel on a 9-pixel window.

        The window is ordered **column-major** — left column top-to-bottom,
        then the middle column, then the right column — which is the order
        the streaming datapath naturally produces (two stored columns plus
        the incoming one).  Kernel weights follow the same ordering.
        """
        window = list(window)
        if len(window) != 9:
            raise ValueError(f"a 3x3 window needs 9 pixels, got {len(window)}")
        accumulator = sum(w * p for w, p in zip(self.weights, window))
        value = accumulator >> self.shift
        return max(0, min(max_value, value))

    @property
    def gain(self) -> float:
        """DC gain of the kernel after normalisation (1.0 preserves brightness)."""
        return sum(self.weights) / float(1 << self.shift)

    def estimated_luts(self, pixel_width: int) -> int:
        """Rough LUT cost of the multiply-accumulate tree for the estimator."""
        nontrivial = sum(1 for w in self.weights if w not in (0, 1, -1))
        adders = 8 * (pixel_width + 4)
        multipliers = nontrivial * pixel_width * 2
        return adders // 4 + multipliers // 2

    def __repr__(self) -> str:
        return f"Kernel3x3({self.name!r}, weights={self.weights}, shift={self.shift})"


#: Identity: output equals the centre pixel.
IDENTITY_KERNEL = Kernel3x3([0, 0, 0, 0, 1, 0, 0, 0, 0], shift=0, name="identity")

#: Smoothing kernel (binomial approximation of a Gaussian), gain 1.
SMOOTH_KERNEL = Kernel3x3([1, 2, 1, 2, 4, 2, 1, 2, 1], shift=4, name="smooth")

#: Sharpening kernel (unsharp masking), gain 1.
SHARPEN_KERNEL = Kernel3x3([0, -1, 0, -1, 8, -1, 0, -1, 0], shift=2, name="sharpen")

#: Laplacian edge detector, gain 0 (flat regions go to black).
EDGE_KERNEL = Kernel3x3([0, -1, 0, -1, 4, -1, 0, -1, 0], shift=0, name="edge")


class Conv3x3Algorithm(Window3x3Algorithm):
    """Streaming 3x3 convolution over a window iterator.

    A :class:`~repro.core.algorithms.blur.Window3x3Algorithm`, like
    :class:`~repro.core.algorithms.blur.BlurAlgorithm` (column history
    registers, horizontal position counter, one output pixel per accepted
    column), whose arithmetic is the supplied :class:`Kernel3x3`.
    """

    def __init__(self, name: str, win_it: HardwareIterator, out_it: HardwareIterator,
                 line_width: int, kernel: Kernel3x3,
                 max_count: Optional[int] = None) -> None:
        max_value = (1 << out_it.iface.width) - 1

        def pixel(window: list) -> int:
            return kernel.apply(window, max_value)

        super().__init__(name, win_it, out_it, line_width, pixel,
                         max_count=max_count)
        self.kernel = kernel
        self._max_value = max_value
        self.logic_cost_luts = kernel.estimated_luts(win_it.iface.width)


def golden_convolve3x3(frame: List[List[int]], kernel: Kernel3x3,
                       max_value: int = 255) -> List[List[int]]:
    """Software reference for :class:`Conv3x3Algorithm` (interior windows only)."""
    height = len(frame)
    width = len(frame[0]) if height else 0
    if width < 3 or height < 3:
        raise ValueError("convolution needs a frame of at least 3x3 pixels")
    output = []
    for y in range(1, height - 1):
        row = []
        for x in range(1, width - 1):
            # Column-major window order, matching the streaming datapath.
            window = [frame[y + dy][x + dx]
                      for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
            row.append(kernel.apply(window, max_value))
        output.append(row)
    return output

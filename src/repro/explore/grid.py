"""Design-space grid: points and cartesian expansion.

A :class:`DesignPoint` pins down everything needed to build, stimulate and
characterise one concrete hardware configuration.  :func:`expand_grid` takes
one sequence per axis and produces the cartesian product in a deterministic
order, dropping combinations that do not name a buildable design (the blur
filter is bound to its 3-line buffer and grayscale pixels by construction).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

#: Designs the runner knows how to build, with their supported bindings.
DESIGN_BINDINGS = {
    "saa2vga": ("fifo", "sram"),
    "blur": ("linebuffer",),
}

#: Pixel formats each design supports.  The blur datapath averages whole
#: words, which is only channel-correct for single-channel formats.
DESIGN_FORMATS = {
    "saa2vga": ("gray8", "rgb24", "rgb565"),
    "blur": ("gray8",),
}


@dataclass(frozen=True, order=True)
class DesignPoint:
    """One point of the exploration grid.

    Attributes
    ----------
    design:
        Design family: ``"saa2vga"`` (stream copy) or ``"blur"`` (3x3 filter).
    binding:
        Container binding: ``"fifo"`` / ``"sram"`` for saa2vga,
        ``"linebuffer"`` for blur.
    pixel_format:
        Name of a :mod:`repro.video.pixel` format (``gray8`` / ``rgb24`` /
        ``rgb565``); decides the element width of every container.
    frame_width, frame_height:
        Geometry of the stimulus frame (and, for blur, the line width).
    capacity:
        Buffer capacity of the containers in the design.
    """

    design: str
    binding: str
    pixel_format: str
    frame_width: int
    frame_height: int
    capacity: int

    def key(self) -> Tuple:
        """Canonical memoization key for this point."""
        return (self.design, self.binding, self.pixel_format,
                self.frame_width, self.frame_height, self.capacity)

    def design_hash(self) -> str:
        """Stable short hash of the point's structural configuration."""
        text = ":".join(str(part) for part in self.key())
        return hashlib.sha1(text.encode("ascii")).hexdigest()[:12]

    def label(self) -> str:
        """Human-readable identifier used in reports."""
        return (f"{self.design}/{self.binding} {self.pixel_format} "
                f"{self.frame_width}x{self.frame_height} cap={self.capacity}")


def is_valid_point(point: DesignPoint) -> Tuple[bool, Optional[str]]:
    """Check whether a point names a buildable configuration.

    Returns ``(True, None)`` or ``(False, reason)``.
    """
    bindings = DESIGN_BINDINGS.get(point.design)
    if bindings is None:
        return False, f"unknown design {point.design!r}"
    if point.binding not in bindings:
        return False, (f"design {point.design!r} does not support binding "
                       f"{point.binding!r} (supported: {bindings})")
    if point.pixel_format not in DESIGN_FORMATS[point.design]:
        return False, (f"design {point.design!r} does not support pixel "
                       f"format {point.pixel_format!r}")
    if point.design == "blur" and (point.frame_width < 3 or point.frame_height < 3):
        return False, "blur needs a frame of at least 3x3 pixels"
    if point.frame_width < 1 or point.frame_height < 1:
        return False, "frame dimensions must be >= 1"
    if point.capacity < 2:
        return False, "capacity must be >= 2"
    return True, None


def expand_grid(designs: Sequence[str] = ("saa2vga",),
                bindings: Optional[Sequence[str]] = None,
                pixel_formats: Sequence[str] = ("gray8",),
                frame_sizes: Sequence[Tuple[int, int]] = ((16, 12),),
                capacities: Sequence[int] = (32,)) -> List[DesignPoint]:
    """Expand axis values into the list of valid :class:`DesignPoint`\\ s.

    The product is enumerated in a fixed nesting order (design, binding,
    pixel format, frame size, capacity), so two calls with the same axes
    always return the same list — the property the runner's
    deterministic reports rely on.  ``bindings=None`` means "every binding
    the design supports"; explicitly-passed bindings are intersected with
    the supported set, and combinations invalid for other reasons are
    silently dropped.
    """
    points: List[DesignPoint] = []
    for design in designs:
        supported = DESIGN_BINDINGS.get(design, ())
        chosen: Iterable[str] = supported if bindings is None else [
            b for b in bindings if b in supported]
        for binding in chosen:
            for fmt in pixel_formats:
                for width, height in frame_sizes:
                    for capacity in capacities:
                        point = DesignPoint(
                            design=design, binding=binding, pixel_format=fmt,
                            frame_width=int(width), frame_height=int(height),
                            capacity=int(capacity))
                        ok, _ = is_valid_point(point)
                        if ok:
                            points.append(point)
    return points

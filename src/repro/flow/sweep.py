"""Pipeline-composition axes for the design-space explorer.

A :class:`PipelinePoint` pins down one elaborated pipeline configuration —
topology, pipeline depth (number of chained stages), per-edge FIFO depth
and shared-bus width — and plugs into the *existing*
:class:`~repro.explore.runner.ExplorationRunner` unchanged: the runner
calls ``point.build()`` / ``point.golden(frame)`` when a point provides
them, and the point exposes the report-facing attributes
(``design``/``binding``/``pixel_format``/``capacity``) so sweep tables,
memoization, the store (its record family is registered in
:mod:`repro.serve.records`) and the worker pool all work exactly as for
the built-in design families.

This module deliberately avoids importing :mod:`repro.explore` at load
time (the explore package re-exports these names, which would cycle);
everything explore-side is reached lazily.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Pipeline topologies the sweep knows how to build.
PIPELINE_TOPOLOGIES = ("chain", "dualpath", "rgbbus")


@dataclass(frozen=True, order=True)
class PipelinePoint:
    """One point of a pipeline-composition sweep.

    Attributes
    ----------
    topology:
        ``"chain"`` (N copy stages in series), ``"dualpath"``
        (split/merge over two parallel copy paths) or ``"rgbbus"`` (24-bit
        pixels over a narrow shared bus with auto-inserted adapters).
    stages:
        Pipeline depth of the ``chain`` topology (structural constant for
        the other two: 2 parallel paths / 1 bus core).
    fifo_depth:
        Elastic FIFO depth of every buffered edge.
    bus_width:
        Stage/bus element width.  For ``rgbbus`` this is the narrow shared
        bus the 24-bit pixels are serialised over.
    frame_width, frame_height:
        Stimulus frame geometry.
    """

    topology: str = "chain"
    stages: int = 2
    fifo_depth: int = 4
    bus_width: int = 8
    frame_width: int = 16
    frame_height: int = 8

    # -- the report/memoization surface the explorer expects ------------------

    @property
    def design(self) -> str:
        return f"flow/{self.topology}"

    @property
    def binding(self) -> str:
        return f"s{self.stages}.d{self.fifo_depth}.b{self.bus_width}"

    @property
    def pixel_format(self) -> str:
        return "rgb24" if self.topology == "rgbbus" else "gray8"

    @property
    def capacity(self) -> int:
        return self.fifo_depth

    @property
    def element_width(self) -> int:
        """Width of the pixels entering the pipeline."""
        return 24 if self.topology == "rgbbus" else self.bus_width

    @property
    def stimulus_max_value(self) -> int:
        """Stimulus ceiling honoured by ``explore.runner.stimulus_frame``:
        the datapath is exactly ``element_width`` bits wide, which for
        narrow buses is less than the nominal pixel format's range."""
        return (1 << self.element_width) - 1

    def key(self) -> Tuple:
        """Canonical memoization key (disjoint from DesignPoint keys)."""
        return ("flow", self.topology, self.stages, self.fifo_depth,
                self.bus_width, self.frame_width, self.frame_height)

    def design_hash(self) -> str:
        """Stable short hash of the point's structural configuration."""
        text = ":".join(str(part) for part in self.key())
        return hashlib.sha1(text.encode("ascii")).hexdigest()[:12]

    def label(self) -> str:
        return (f"{self.design} {self.binding} "
                f"{self.frame_width}x{self.frame_height}")

    # -- runner hooks ----------------------------------------------------------

    def build(self):
        """Elaborate the pipeline this point describes."""
        from ..designs import (
            build_copy_chain,
            build_dual_path_saa2vga,
            build_rgb_over_bus_pipeline,
        )

        name = f"{self.topology}_{self.design_hash()}"
        if self.topology == "chain":
            return build_copy_chain(self.stages, name=name,
                                    width=self.bus_width,
                                    fifo_depth=self.fifo_depth)
        if self.topology == "dualpath":
            return build_dual_path_saa2vga(name=name, width=self.bus_width,
                                           fifo_depth=self.fifo_depth)
        if self.topology == "rgbbus":
            return build_rgb_over_bus_pipeline(name=name,
                                               bus_width=self.bus_width,
                                               fifo_depth=self.fifo_depth)
        raise ValueError(f"unknown pipeline topology {self.topology!r}")

    def golden(self, frame) -> list:
        """All shipped sweep topologies are stream-identity pipelines."""
        from ..video import flatten

        return flatten(frame)


def is_valid_pipeline_point(point: PipelinePoint) -> Tuple[bool, Optional[str]]:
    """Check whether a point names a buildable pipeline configuration."""
    if point.topology not in PIPELINE_TOPOLOGIES:
        return False, (f"unknown topology {point.topology!r} "
                       f"(known: {PIPELINE_TOPOLOGIES})")
    if point.stages < 1:
        return False, "pipeline depth (stages) must be >= 1"
    if point.fifo_depth < 2:
        return False, "edge FIFO depth must be >= 2"
    if point.bus_width < 1:
        return False, "bus width must be >= 1"
    if point.topology == "rgbbus" and 24 % point.bus_width:
        return False, (f"rgbbus needs a bus width dividing 24, "
                       f"got {point.bus_width}")
    if point.topology != "chain" and point.stages != 2:
        # Structural constant for dualpath (2 paths) and rgbbus (core +
        # adapters); only the chain topology sweeps real pipeline depth.
        return False, f"topology {point.topology!r} has a fixed depth of 2"
    if point.frame_width < 1 or point.frame_height < 1:
        return False, "frame dimensions must be >= 1"
    return True, None


def expand_pipeline_grid(
        topologies: Sequence[str] = ("chain",),
        stages: Sequence[int] = (2,),
        fifo_depths: Sequence[int] = (4,),
        bus_widths: Sequence[int] = (8,),
        frame_sizes: Sequence[Tuple[int, int]] = ((16, 8),),
) -> List[PipelinePoint]:
    """Cartesian expansion of the pipeline axes into valid points.

    Same contract as :func:`repro.explore.grid.expand_grid`: fixed nesting
    order, deterministic output, invalid combinations silently dropped
    (e.g. depth values for the fixed-depth topologies other than 2).
    """
    points: List[PipelinePoint] = []
    for topology in topologies:
        for depth in stages:
            for fifo_depth in fifo_depths:
                for bus in bus_widths:
                    for width, height in frame_sizes:
                        point = PipelinePoint(
                            topology=topology, stages=int(depth),
                            fifo_depth=int(fifo_depth), bus_width=int(bus),
                            frame_width=int(width), frame_height=int(height))
                        ok, _ = is_valid_pipeline_point(point)
                        if ok:
                            points.append(point)
    return points

"""Design-space characterisation of container bindings (Section 3.4).

"In this paper, we characterized all the physical devices available in the
target platform (the XSB-300E prototype board from XESS).  We obtained
information about data access times for every container, area, power
consumption ...  This characterization of the design space would delimit the
region of interest given a certain set of constraints."

This module reproduces that step: for every (container kind, binding,
capacity) point it reports the estimated area (FFs/LUTs/block RAMs), a power
proxy, and the *measured* streaming throughput obtained by simulating a copy
through the container pair.  The benches use it to regenerate the FIFO-vs-
SRAM trade-off the paper describes ("the first one provides maximum
performance at the highest cost; the SRAM implementation is much smaller,
but performance will depend on memory access times").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import CopyAlgorithm, make_container, make_iterator
from ..rtl import COMPILED, Component
from ..video import flatten, random_frame
from .estimator import EstimateReport, ResourceEstimator
from .target import TargetBoard, default_target


@dataclass
class CharacterizationPoint:
    """One point of the design space: a buffer binding at a given capacity."""

    kind: str
    binding: str
    capacity: int
    width: int
    area: EstimateReport
    cycles_per_element: float
    power_mw: float

    def row(self) -> Dict[str, object]:
        return {
            "container": self.kind,
            "binding": self.binding,
            "capacity": self.capacity,
            "width": self.width,
            "FFs": self.area.total.ffs,
            "LUTs": self.area.total.total_luts,
            "blockRAM": self.area.total.brams,
            "cycles/elem": round(self.cycles_per_element, 2),
            "power_mW": round(self.power_mw, 1),
        }


def estimate_power_mw(report: EstimateReport, toggle_rate: float = 0.25) -> float:
    """Crude dynamic-power proxy for a characterised block.

    The paper reports power characterisation without giving its model; as a
    stand-in we charge a per-resource switching cost scaled by an assumed
    toggle rate, plus a fixed cost for driving the external memory bus.  Only
    *relative* comparisons between bindings are meaningful.
    """
    total = report.total
    power = 0.018 * total.total_luts + 0.011 * total.ffs + 1.6 * total.brams
    if report.uses_external_memory:
        power += 4.0
    return power * (toggle_rate / 0.25)


class _BufferPair(Component):
    """Read buffer -> copy -> write buffer, used to measure streaming latency."""

    def __init__(self, binding: str, width: int, capacity: int,
                 extra_params: Optional[dict] = None) -> None:
        super().__init__(f"char_{binding}")
        params = {"width": width, "capacity": capacity}
        params.update(extra_params or {})
        self.rbuffer = self.child(make_container("read_buffer", binding,
                                                 "rbuffer", **params))
        self.wbuffer = self.child(make_container("write_buffer", binding,
                                                 "wbuffer", **params))
        self.rit = self.child(make_iterator(self.rbuffer, "forward",
                                            readable=True, name="rit"))
        self.wit = self.child(make_iterator(self.wbuffer, "forward",
                                            writable=True, name="wit"))
        self.copy = self.child(CopyAlgorithm("copy", self.rit, self.wit))
        self.input_fill = self.rbuffer.fill
        self.output_drain = self.wbuffer.drain


def measure_stream_cycles_per_element(binding: str, width: int = 8,
                                      capacity: int = 64, elements: int = 64,
                                      extra_params: Optional[dict] = None,
                                      max_cycles: int = 200_000,
                                      strategy: str = COMPILED) -> float:
    """Simulate a copy of ``elements`` through a buffer pair and report cycles/element."""
    from ..designs.system import run_stream_through  # local import avoids a cycle

    design = _BufferPair(binding, width, capacity, extra_params)
    frame = random_frame(elements, 1, seed=11, max_value=(1 << width) - 1)
    result = run_stream_through(design, frame, max_cycles=max_cycles,
                                strategy=strategy)
    assert result["pixels"] == flatten(frame)
    return result["cycles"] / elements


def characterize_buffer_binding(binding: str, capacity: int, width: int = 8,
                                board: Optional[TargetBoard] = None,
                                elements: int = 64,
                                extra_params: Optional[dict] = None) -> CharacterizationPoint:
    """Characterise one buffer binding: area of a read buffer + measured throughput."""
    board = board or default_target()
    estimator = ResourceEstimator(board=board)
    params = {"width": width, "capacity": capacity}
    params.update(extra_params or {})
    container = make_container("read_buffer", binding, f"rb_{binding}_{capacity}",
                               **params)
    area = estimator.estimate(container)
    cycles = measure_stream_cycles_per_element(
        binding, width=width, capacity=capacity, elements=elements,
        extra_params=extra_params)
    return CharacterizationPoint(
        kind="read_buffer", binding=binding, capacity=capacity, width=width,
        area=area, cycles_per_element=cycles, power_mw=estimate_power_mw(area))


def characterize_design_space(capacities: Sequence[int] = (32, 64, 128, 256, 512),
                              bindings: Sequence[str] = ("fifo", "sram"),
                              width: int = 8,
                              board: Optional[TargetBoard] = None,
                              elements: int = 48) -> List[CharacterizationPoint]:
    """Sweep buffer bindings over capacities — the Section 3.4 characterisation."""
    points: List[CharacterizationPoint] = []
    for binding in bindings:
        for capacity in capacities:
            points.append(characterize_buffer_binding(
                binding, capacity, width=width, board=board, elements=elements))
    return points


def pareto_front(points: Sequence[CharacterizationPoint]) -> List[CharacterizationPoint]:
    """Points not dominated in (area LUT-equivalent, cycles/element).

    This is the "region of interest given a certain set of constraints" the
    characterisation is meant to delimit: implementations off the front are
    never the right choice regardless of the constraint mix.  Only points with
    the same functional specification (capacity and element width) are
    compared against each other — a smaller buffer is not a substitute for a
    larger one.
    """
    def area_key(point: CharacterizationPoint) -> float:
        total = point.area.total
        # Express area in LUT equivalents.  Block RAMs are weighted by the
        # fraction of the device they occupy (6144 LUTs / 16 BRAMs = 384
        # LUT-equivalents each): they are the scarce resource whose cost the
        # external-SRAM binding is meant to avoid.
        return total.total_luts + total.ffs + 384.0 * total.brams

    front: List[CharacterizationPoint] = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            if (other.capacity, other.width) != (candidate.capacity, candidate.width):
                continue
            if (area_key(other) <= area_key(candidate)
                    and other.cycles_per_element <= candidate.cycles_per_element
                    and (area_key(other) < area_key(candidate)
                         or other.cycles_per_element < candidate.cycles_per_element)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front

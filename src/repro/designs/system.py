"""Full-system harness: design under test + video source + video sink.

This models the complete Figure-1 system: camera/decoder (the synthetic
:class:`VideoStreamSource`), the image-processing circuit (any design that
exposes ``input_fill`` / ``output_drain`` interfaces — pattern-based or
custom) and the VGA coder/monitor (the :class:`VideoStreamSink`).

It is the single harness every functional test, example and performance
bench uses, so pattern and custom implementations are always exercised under
identical conditions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..rtl import COMPILED, Component, Simulator
from ..video import Frame, VideoStreamSink, VideoStreamSource


class VideoSystem(Component):
    """Wire a processing design between a stream source and a stream sink.

    Parameters
    ----------
    design:
        Any component with ``input_fill`` (stream sink interface) and
        ``output_drain`` (stream source interface) attributes.
    frames:
        Frames to feed through the pipeline.
    source_stall / sink_stall:
        Optional throttling of the producer/consumer sides.
    """

    def __init__(self, design: Component, frames: Optional[Sequence[Frame]] = None,
                 name: str = "system", source_stall: int = 0,
                 sink_stall: int = 0) -> None:
        super().__init__(name)
        if not hasattr(design, "input_fill") or not hasattr(design, "output_drain"):
            raise TypeError(
                f"design {design.name!r} does not expose input_fill/output_drain "
                f"interfaces and cannot be placed in a VideoSystem")
        if source_stall < 0:
            raise ValueError(
                f"source_stall must be >= 0, got {source_stall}")
        if sink_stall < 0:
            raise ValueError(
                f"sink_stall must be >= 0, got {sink_stall}")
        self.design = self.child(design)
        self.source = self.child(VideoStreamSource(
            f"{name}_source", design.input_fill, frames=frames,
            stall_period=source_stall))
        self.sink = self.child(VideoStreamSink(
            f"{name}_sink", design.output_drain, stall_period=sink_stall))

    # -- flow-graph equivalence --------------------------------------------------------

    @staticmethod
    def flow_graph(design: Component, name: str = "system"):
        """The legacy harness wiring as a two-edge pipeline graph.

        ``VideoSystem`` historically wired source -> design -> sink by
        hand; expressed through :mod:`repro.flow` it is simply a graph with
        one stage and two depth-0 (wire) edges.  The elaborated pipeline is
        cycle-identical to wrapping ``design`` directly, which
        ``tests/flow/test_elaborate.py`` proves — the legacy harness is a
        special case of the composition subsystem, not a parallel code
        path.
        """
        from ..flow import PipelineGraph

        graph = PipelineGraph(name)
        node = graph.stage(design)
        graph.connect(graph.INPUT, node, depth=0)
        graph.connect(node, graph.OUTPUT, depth=0)
        expected = getattr(design, "expected_output", None)
        if expected is not None:
            graph.golden(expected)
        return graph

    @classmethod
    def via_flow(cls, design: Component,
                 frames: Optional[Sequence[Frame]] = None,
                 name: str = "system", source_stall: int = 0,
                 sink_stall: int = 0) -> "VideoSystem":
        """Build the harness through the flow subsystem (same behaviour)."""
        pipeline = cls.flow_graph(design, name=f"{name}_flow").elaborate()
        return cls(pipeline, frames=frames, name=name,
                   source_stall=source_stall, sink_stall=sink_stall)

    # -- simulation helpers ----------------------------------------------------------

    def simulate(self, expected_outputs: int, max_cycles: int = 2_000_000,
                 simulator: Optional[Simulator] = None,
                 strategy: str = COMPILED) -> Simulator:
        """Run until ``expected_outputs`` pixels have reached the sink.

        Returns the simulator so callers can inspect cycle counts.  Raises
        :class:`SimulationError` if the pipeline stalls before producing the
        expected number of pixels.  ``strategy`` selects the settle engine
        (ignored when an existing ``simulator`` is passed in).
        """
        sim = simulator or Simulator(self, strategy=strategy)
        sim.run_until(lambda: self.sink.count >= expected_outputs, max_cycles)
        return sim

    def received_pixels(self) -> List[int]:
        """Every pixel captured by the sink so far."""
        return list(self.sink.received)

    def received_frame(self, width: int, height: int, offset: int = 0) -> Frame:
        """Reassemble a received frame of the given geometry."""
        return self.sink.frame(width, height, offset=offset)


def run_stream_through(design: Component, frame: Frame,
                       expected_outputs: Optional[int] = None,
                       max_cycles: int = 2_000_000,
                       source_stall: int = 0, sink_stall: int = 0,
                       strategy: str = COMPILED) -> dict:
    """Convenience one-shot: push ``frame`` through ``design`` and collect results.

    Returns a dict with the received pixels, the cycle count and the achieved
    throughput (pixels per cycle), which the performance benches report.
    ``strategy`` selects the simulator's settle engine.
    """
    total_inputs = sum(len(row) for row in frame)
    if expected_outputs is None:
        expected_outputs = total_inputs
    system = VideoSystem(design, frames=[frame], source_stall=source_stall,
                         sink_stall=sink_stall)
    sim = system.simulate(expected_outputs, max_cycles=max_cycles,
                          strategy=strategy)
    pixels = system.received_pixels()
    return {
        "pixels": pixels,
        "cycles": sim.cycles,
        "inputs": total_inputs,
        "outputs": len(pixels),
        "throughput": len(pixels) / max(1, sim.cycles),
        "system": system,
        "simulator": sim,
    }

"""Elaboration: turn a validated :class:`PipelineGraph` into hardware.

The elaborated :class:`Pipeline` is an ordinary :class:`~repro.rtl.Component`
exposing the standard ``input_fill`` / ``output_drain`` stream interfaces, so
it drops unchanged into every harness the repo already has: ``VideoSystem``,
``run_stream_through``, the verification session runner, the exploration
runner and the synthesis estimator (which aggregates area over the whole
tree for free).

Per edge, the elaborator builds the chain

    producer ─[bridge]─ (WidthDownConverter) ─ (StreamChannel) ─
        (WidthUpConverter) ─[bridge]─ consumer

inserting each element only when needed: converters appear exactly when an
endpoint's element width differs from the edge's bus width (Section 3.3's
automatic width adaptation, "requiring no designer intervention"), and the
channel FIFO appears when the edge has a non-zero depth.  Bridges are pure
combinational renaming, so a depth-0 edge between width-matched ports adds
zero cycles — the legacy ``VideoSystem`` wiring is exactly the two-wire-edge
special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.interfaces import StreamSinkIface, StreamSourceIface
from ..metagen.width_adapter import WidthDownConverter, WidthUpConverter
from ..rtl import Component
from .channel import StreamChannel
from .graph import GRAPH_INPUT, GRAPH_OUTPUT, Edge, PipelineGraph


def _handshake(iface) -> tuple:
    """``(data, forward strobe, backward ack)`` of a stream interface:
    ``valid``/``pop`` on a source-style one, ``push``/``ready`` on a
    sink-style one."""
    if isinstance(iface, StreamSourceIface) or hasattr(iface, "valid"):
        return iface.data, iface.valid, iface.pop
    return iface.data, iface.push, iface.ready


def _bridge(src, dst):
    """One hop: ``dst`` takes ``src``'s data and forward strobe, ``src``
    takes ``dst``'s ack.  The same process serves every pairing of
    source- and sink-style interfaces (producer to consumer, the external
    fill to the first consumer, the last producer to the external drain,
    and the degenerate fill-to-drain pass-through)."""
    src_data, src_strobe, src_ack = _handshake(src)
    dst_data, dst_strobe, dst_ack = _handshake(dst)

    def bridge() -> None:
        dst_data.next = src_data.value
        dst_strobe.next = src_strobe.value
        src_ack.next = dst_ack.value
    return bridge


@dataclass(frozen=True)
class EdgeInstance:
    """The hardware one graph edge elaborated into."""

    edge: Edge
    #: The elastic FIFO of the edge, or None for a depth-0 wire.
    channel: Optional[StreamChannel]
    #: Width converters inserted on this edge (producer-side first).
    adapters: Tuple[Component, ...]

    @property
    def bus_width(self) -> int:
        if self.channel is not None:
            return self.channel.width
        return 0


class Pipeline(Component):
    """A fully-elaborated pipeline graph, ready to simulate.

    Attributes
    ----------
    input_fill / output_drain:
        The external stream boundary (same convention as every design).
    channels:
        Every elastic FIFO edge, in graph-edge order.
    adapters:
        Every auto-inserted width converter, in insertion order.
    edge_instances:
        Per-edge record of what was built (channel + adapters), used by the
        per-edge verification monitors and by :meth:`describe`.
    """

    #: The pipeline shell is wiring only; nodes, channels and adapters own
    #: all the logic, so synthesis dissolves the shell itself.
    transparent = True
    style = "flow"
    binding = "flow"

    def __init__(self, graph: PipelineGraph, name: Optional[str] = None) -> None:
        super().__init__(name or graph.name)
        graph.validate()
        self.graph = graph

        for node in graph.nodes.values():
            self.child(node.component)

        self.width = graph.resolved_input_width()
        self.output_width = graph.resolved_output_width()
        self.input_fill = StreamSinkIface(self, self.width,
                                          name=f"{self.name}_in")
        self.output_drain = StreamSourceIface(self, self.output_width,
                                              name=f"{self.name}_out")

        self.channels: List[StreamChannel] = []
        self.adapters: List[Component] = []
        self.edge_instances: List[EdgeInstance] = []
        for edge in graph.edges:
            self._build_edge(edge)

        if graph._golden is not None:
            #: Pipeline-level golden model (``pixels -> pixels``) consumed
            #: by the verification session and the exploration runner.
            self.expected_output = graph._golden

    # -- construction ---------------------------------------------------------

    def _endpoints(self, edge: Edge):
        """(producer iface, producer width, consumer iface, consumer width)."""
        if edge.src == GRAPH_INPUT:
            src_iface: object = self.input_fill
            src_w = self.width
        else:
            node = self.graph.nodes[edge.src]
            src_iface = node.outputs[edge.src_port]
            src_w = src_iface.width
        if edge.dst == GRAPH_OUTPUT:
            dst_iface: object = self.output_drain
            dst_w = self.output_width
        else:
            node = self.graph.nodes[edge.dst]
            dst_iface = node.inputs[edge.dst_port]
            dst_w = dst_iface.width
        return src_iface, src_w, dst_iface, dst_w

    def _build_edge(self, edge: Edge) -> None:
        src_iface, src_w, dst_iface, dst_w = self._endpoints(edge)
        bus = edge.bus_width if edge.bus_width is not None else min(src_w, dst_w)
        label = edge.label()
        current = src_iface
        inserted: List[Component] = []

        if src_w != bus:
            down = WidthDownConverter(f"{label}_down", element_width=src_w,
                                      bus_width=bus)
            self.child(down)
            inserted.append(down)
            self.comb(_bridge(current, down.wide_in))
            current = down.narrow_out

        channel: Optional[StreamChannel] = None
        if edge.depth > 0:
            channel = StreamChannel(f"{label}_ch", width=bus, depth=edge.depth)
            self.child(channel)
            self.channels.append(channel)
            self.comb(_bridge(current, channel.fill))
            current = channel.drain

        if dst_w != bus:
            up = WidthUpConverter(f"{label}_up", element_width=dst_w,
                                  bus_width=bus)
            self.child(up)
            inserted.append(up)
            self.comb(_bridge(current, up.narrow_in))
            current = up.wide_out

        self.comb(_bridge(current, dst_iface))
        self.adapters.extend(inserted)
        self.edge_instances.append(EdgeInstance(edge, channel, tuple(inserted)))

    # -- introspection ---------------------------------------------------------

    def adaptation_plans(self) -> List[object]:
        """The :class:`WidthAdaptationPlan` of every inserted converter."""
        return [adapter.plan for adapter in self.adapters]

    def describe(self) -> dict:
        """Structural summary in the same shape the shipped designs use."""
        return {
            "design": self.name,
            "style": self.style,
            "binding": self.binding,
            "nodes": sorted(self.graph.nodes),
            "edges": [
                {
                    "label": inst.edge.label(),
                    "depth": inst.edge.depth,
                    "bus_width": (inst.channel.width if inst.channel
                                  else inst.edge.bus_width),
                    "adapters": [type(a).__name__ for a in inst.adapters],
                }
                for inst in self.edge_instances
            ],
            "auto_adapters": len(self.adapters),
            "channels": len(self.channels),
        }


def elaborate(graph: PipelineGraph, name: Optional[str] = None) -> Pipeline:
    """Functional spelling of :meth:`PipelineGraph.elaborate`."""
    return Pipeline(graph, name=name)

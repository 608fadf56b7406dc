"""Integration tests for the model-reuse claims of Sections 2 and 3.3.

The motivating example argues that an ad-hoc copy FSM must be "radically
changed" when a sequential buffer is replaced by a RAM, whereas the
pattern-based model is untouched.  These tests assert the second half of that
claim mechanically: the exact same algorithm and iterator classes, with the
same structural footprint, drive every binding, and only the container
implementation differs.
"""

import pytest

from repro.core import (
    SMOOTH_KERNEL,
    Conv3x3Algorithm,
    CopyAlgorithm,
    TransformAlgorithm,
    invert,
    make_container,
    make_iterator,
)
from repro.designs import (
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_rgb_over_bus_pipeline,
    build_saa2vga_pattern,
    run_stream_through,
)
from repro.flow import StreamChannel
from repro.rtl import Component, Simulator
from repro.synth import estimate_design
from repro.testing import stream_feed_and_drain
from repro.video import flatten, golden_map, random_frame


def test_same_algorithm_class_and_iterators_across_bindings():
    fifo = build_saa2vga_pattern("fifo", capacity=32)
    sram = build_saa2vga_pattern("sram", capacity=32)
    assert type(fifo.algorithm) is type(sram.algorithm)
    assert type(fifo.rbuffer_it) is type(sram.rbuffer_it)
    assert type(fifo.wbuffer_it) is type(sram.wbuffer_it)
    # The algorithm component has the same structural footprint in both
    # designs: same registers, same processes — nothing was rewritten.
    assert fifo.algorithm.state_bits() == sram.algorithm.state_bits()
    assert len(fifo.algorithm.comb_procs) == len(sram.algorithm.comb_procs)
    assert len(fifo.algorithm.seq_procs) == len(sram.algorithm.seq_procs)


def test_algorithm_resource_estimate_is_binding_independent():
    estimator_rows = {}
    for binding in ("fifo", "sram"):
        design = build_saa2vga_pattern(binding, capacity=64)
        report = estimate_design(design)
        algorithm_entries = [entry for entry in report.components
                             if entry.path.endswith(".copy")]
        assert len(algorithm_entries) == 1
        entry = algorithm_entries[0]
        estimator_rows[binding] = (entry.resources.ffs, entry.resources.total_luts)
    assert estimator_rows["fifo"] == estimator_rows["sram"]


def test_transform_algorithm_reused_over_four_container_pairings():
    """The same transform runs over fifo/sram buffers in any combination."""
    frame = random_frame(8, 4, seed=31)
    pixels = flatten(frame)
    expected = flatten(golden_map(frame, invert(8)))
    for in_binding in ("fifo", "sram"):
        for out_binding in ("fifo", "sram"):
            top = Component("top")
            rb = top.child(make_container("read_buffer", in_binding, "rb",
                                          width=8, capacity=16))
            wb = top.child(make_container("write_buffer", out_binding, "wb",
                                          width=8, capacity=16))
            rit = top.child(make_iterator(rb, "forward", readable=True, name="rit"))
            wit = top.child(make_iterator(wb, "forward", writable=True, name="wit"))
            top.child(TransformAlgorithm("inv", rit, wit, func=invert(8)))
            sim = Simulator(top)
            received = stream_feed_and_drain(sim, rb.fill, wb.drain, pixels,
                                             max_cycles=200_000)
            assert received == expected, (in_binding, out_binding)


def test_copy_algorithm_reused_from_queue_to_stack():
    """Algorithms are container-agnostic: a queue source feeding a stack sink."""
    top = Component("top")
    queue = top.child(make_container("queue", "fifo", "q", width=8, capacity=16))
    stack = top.child(make_container("stack", "lifo", "s", width=8, capacity=16))
    qit = top.child(make_iterator(queue, "forward", readable=True, name="qit"))
    sit = top.child(make_iterator(stack, "backward", writable=True, name="sit"))

    # The stack's output iterator advances with `dec`; bridge the copy
    # algorithm's `inc` strobe onto it so the generic copy works unchanged.
    class DecBridge(Component):
        def __init__(self, name, iface):
            super().__init__(name)

            @self.comb
            def bridge():
                iface.dec.next = iface.inc.value

    top.child(DecBridge("bridge", sit.iface))
    top.child(CopyAlgorithm("copy", qit, sit))
    sim = Simulator(top)
    data = [1, 2, 3, 4, 5]
    from repro.testing import stream_feed
    stream_feed(sim, queue.sink, data)
    sim.step(60)
    assert stack.snapshot() == data  # pushed in order; pops would reverse it


def test_blur_and_copy_share_the_same_output_iterator_class():
    blur = build_blur_pattern(line_width=16)
    copy = build_saa2vga_pattern("fifo", capacity=16)
    assert type(blur.wbuffer_it) is type(copy.wbuffer_it)
    assert type(blur.wbuffer) is type(copy.wbuffer)


def test_end_to_end_results_are_binding_independent():
    frame = random_frame(12, 6, seed=8)
    outputs = {}
    for binding in ("fifo", "sram"):
        design = build_saa2vga_pattern(binding, capacity=16)
        outputs[binding] = run_stream_through(design, frame)["pixels"]
    assert outputs["fifo"] == outputs["sram"] == flatten(frame)


# -- repeated glue: one definition each ----------------------------------------


def _stream_containers(*pairs):
    return [make_container(kind, binding, "dut", width=8, capacity=4)
            for kind, binding in pairs]


def _window_algorithms():
    """A blur and a convolution, each over its own window iterator."""
    algorithms = [build_blur_pattern(line_width=8).algorithm]
    top = Component("top")
    rb = top.child(make_container("read_buffer", "linebuffer3", "rb", width=8,
                                  line_width=8))
    wb = top.child(make_container("write_buffer", "fifo", "wb", width=8,
                                  capacity=8))
    win_it = top.child(make_iterator(rb, "window", readable=True, name="win"))
    out_it = top.child(make_iterator(wb, "forward", writable=True, name="out"))
    algorithms.append(top.child(Conv3x3Algorithm(
        "conv", win_it, out_it, line_width=8, kernel=SMOOTH_KERNEL)))
    return algorithms


#: glue -> the processes each user registers: one tuple per user, compared
#: position by position.
SHARED_GLUE = {
    # Figure 4's wrapper over a FIFO or LIFO core.
    "core wrapper": lambda: [tuple(c.comb_procs) for c in (
        *_stream_containers(("read_buffer", "fifo"), ("write_buffer", "fifo"),
                            ("queue", "fifo"), ("stack", "lifo")),
        StreamChannel("ch", width=8, depth=4))],
    "sram forward": lambda: [tuple(c.comb_procs) for c in _stream_containers(
        ("read_buffer", "sram"), ("write_buffer", "sram"), ("queue", "sram"))],
    # Every hop of two pipelines: graph input, channels, width converters,
    # nodes and graph output.
    "pipeline hop": lambda: [(proc,) for pipeline in (
        build_dual_path_saa2vga(), build_rgb_over_bus_pipeline())
        for proc in pipeline.comb_procs],
    "window datapath": lambda: [(*a.comb_procs, *a.seq_procs)
                                for a in _window_algorithms()],
}


@pytest.mark.parametrize("glue", sorted(SHARED_GLUE))
def test_repeated_glue_registers_one_code_object(glue):
    users = SHARED_GLUE[glue]()
    assert len(users) >= 2 and users[0]
    codes = [tuple(proc.__code__ for proc in procs) for procs in users]
    assert codes == [codes[0]] * len(codes)

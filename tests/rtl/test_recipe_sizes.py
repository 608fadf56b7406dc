"""One compiled recipe per design structure, every size served correctly.

A recipe compares a design's *decision* facts and writes its *values* —
masks, memory depths, instance integers such as ``self.depth`` — into the
compiled module's constants (see ``repro.rtl.compile.guard``).  Hypothesis
draws two sizes of one shipped design family; the second build must hit
whenever its decision facts equal the first's, run cycle for cycle like the
fixpoint oracle, and carry the ``compiled_source`` a cold compile of it
writes, byte for byte.
"""

import random

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import repro.rtl.compile as rtl_compile
from repro.core import make_container
from repro.designs import (
    BlurCustomDesign,
    Saa2VgaCustomFIFO,
    Saa2VgaCustomSRAM,
    VideoSystem,
    build_blur_histogram_pipeline,
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_rgb_over_bus_pipeline,
    build_saa2vga_pattern,
)
from repro.obs.metrics import REGISTRY
from repro.rtl import (
    COMPILED,
    FIXPOINT,
    FSM,
    Recorder,
    SignalBundle,
    Simulator,
)
from repro.video import random_frame

CYCLES = 150


def _video(design, width=6):
    """``design`` fed one ``width``-pixel-wide frame."""
    return lambda: VideoSystem(design(),
                               frames=[random_frame(width, 4, seed=width)])


def _saa2vga(structure, capacity):
    style, binding = structure
    if style == "pattern":
        return _video(lambda: build_saa2vga_pattern(binding,
                                                    capacity=capacity))
    custom = Saa2VgaCustomFIFO if binding == "fifo" else Saa2VgaCustomSRAM
    return _video(lambda: custom(capacity=capacity))


def _blur(style, size):
    line_width, out_capacity = size
    build = build_blur_pattern if style == "pattern" else BlurCustomDesign
    return _video(lambda: build(line_width=line_width,
                                out_capacity=out_capacity), line_width)


#: Inputs a test bench drives, per interface attribute of a container.
_INPUTS = {"sink": ("data", "push"), "fill": ("data", "push"),
           "source": ("pop",), "drain": ("pop",),
           "port": ("en", "we", "addr", "wdata")}


def _container(structure, size):
    kind, binding = structure
    width, capacity = size
    return lambda: make_container(kind, binding, "dut", width=width,
                                  capacity=capacity)


def _family(structures, sizes, build):
    """Two builds of one structure drawn from ``structures``, at two sizes
    drawn from ``sizes``."""
    return st.tuples(structures, sizes, sizes).map(
        lambda drawn: (build(drawn[0], drawn[1]), build(drawn[0], drawn[2])))


_CAPACITY = st.sampled_from([2, 3, 4, 5, 8, 12, 16, 32])
_LINE = st.integers(min_value=3, max_value=24)
_DEPTH = st.integers(min_value=2, max_value=8)
_ONE = st.just(None)

FAMILIES = {
    "saa2vga": _family(
        st.tuples(st.sampled_from(["pattern", "custom"]),
                  st.sampled_from(["fifo", "sram"])), _CAPACITY, _saa2vga),
    "blur": _family(st.sampled_from(["pattern", "custom"]),
                    st.tuples(_LINE, _CAPACITY), _blur),
    "dual-path": _family(_ONE, st.tuples(_CAPACITY, _DEPTH), lambda _, size: (
        _video(lambda: build_dual_path_saa2vga(capacity=size[0],
                                               fifo_depth=size[1])))),
    "rgb-bus": _family(_ONE, st.tuples(_CAPACITY, _DEPTH), lambda _, size: (
        _video(lambda: build_rgb_over_bus_pipeline(capacity=size[0],
                                                   fifo_depth=size[1])))),
    "blur-histogram": _family(_ONE, _LINE, lambda _, line: _video(
        lambda: build_blur_histogram_pipeline(line_width=line), line)),
    "container": _family(
        st.sampled_from([("queue", "fifo"), ("queue", "sram"),
                         ("read_buffer", "fifo"), ("read_buffer", "sram"),
                         ("write_buffer", "fifo"), ("write_buffer", "sram"),
                         ("stack", "lifo"), ("stack", "sram"),
                         ("vector", "bram"), ("vector", "sram"),
                         ("vector", "registers")]),
        st.tuples(st.sampled_from([1, 4, 8, 12]), _CAPACITY), _container),
}


def _stimulus(top, sim, cycles):
    """Seeded random values on a container's inputs, one draw per cycle;
    video systems drive themselves."""
    inputs = [getattr(getattr(top, iface), name)
              for iface, names in _INPUTS.items()
              if isinstance(getattr(top, iface, None), SignalBundle)
              for name in names]
    rng = random.Random(7)
    for _ in range(cycles):
        for sig in inputs:
            sig.force(rng.getrandbits(sig.width))
        sim.step()


def _run(factory, strategy):
    """Build and run ``factory()``: ``(trace, simulator, recipe hit)``."""
    top = factory()
    hits = REGISTRY.value("compile_recipe_hits")
    sim = Simulator(top, strategy=strategy)
    hit = REGISTRY.value("compile_recipe_hits") == hits + 1
    recorder = Recorder(sim, top.all_signals())
    _stimulus(top, sim, CYCLES)
    fsms = [(fsm.name, fsm.observed_transitions()) for comp in top.walk()
            for fsm in vars(comp).values() if isinstance(fsm, FSM)]
    return ((recorder.rows, [mem.dump() for mem in top.all_memories()],
             fsms), sim, hit)


def _decisions():
    """The decision facts of the one recipe in the cache."""
    (recipes,) = rtl_compile._RECIPES.values()
    (recipe,) = recipes
    guard = recipe.guard
    return guard.roots, guard.facts, guard.pins


@seed(2026)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair=st.sampled_from(sorted(FAMILIES)).flatmap(FAMILIES.get))
def test_a_second_size_hits_and_runs_as_a_cold_compile(pair):
    first, second = pair
    rtl_compile._clear_recipes()
    _run(first, COMPILED)
    recorded = _decisions()
    trace, sim, hit = _run(second, COMPILED)
    assert trace == _run(second, FIXPOINT)[0]
    assert sim.analysis_misses == 0
    rtl_compile._clear_recipes()
    _, cold, cold_hit = _run(second, COMPILED)
    assert not cold_hit
    assert sim.compiled_source == cold.compiled_source
    if _decisions() == recorded:
        assert hit

"""Profiled stepping: the settle profiler's rows under every strategy.

A profiled step times the same loop an unprofiled one runs and reads the
settle rounds that loop returns, so the rows below (pinned from the
pre-refactor per-strategy profiled loops) and the received pixels must
not depend on whether the profiler is on.
"""

import pytest

from repro.designs import VideoSystem, build_blur_pattern, build_saa2vga_pattern
from repro.obs import profile, tracing
from repro.rtl import Component, Simulator
from repro.rtl.compile import _clear_recipes
from repro.video import random_frame

DESIGNS = {
    "fifo": lambda: build_saa2vga_pattern("fifo"),
    "blur": lambda: build_blur_pattern(16),
}

#: (design, strategy) -> (sims, steps, cycles, settles, fallback).
ROWS = {
    ("fifo", "compiled"): (1, 66, 102, 102, 0),
    ("fifo", "fixpoint"): (1, 66, 102, 816, 0),
    ("blur", "compiled"): (1, 114, 150, 150, 0),
    ("blur", "fixpoint"): (1, 114, 150, 1348, 0),
}


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    tracing.disable()
    tracing.drain()
    profile.disable()


def stream(design, strategy):
    """37 cycles in one step, then single steps until 100 pixels arrive."""
    system = VideoSystem(DESIGNS[design](),
                         frames=[random_frame(16, 12, seed=3)])
    sim = Simulator(system, strategy=strategy)
    sim.step(37)
    sim.run_until(lambda: system.sink.count >= 100)
    return system.received_pixels()


@pytest.mark.parametrize("design, strategy", sorted(ROWS))
def test_profile_rows_and_pixels_match_an_unprofiled_run(design, strategy):
    plain = stream(design, strategy)
    profiler = profile.enable()
    profiled = stream(design, strategy)
    profile.disable()
    bucket = profiler.strategies[strategy]
    row = tuple(int(bucket[field]) for field in (
        "sims", "steps", "cycles", "settle_iterations", "fallback_hits"))
    assert row == ROWS[design, strategy]
    assert profiled == plain


@pytest.mark.parametrize("profiled", [False, True])
def test_batch_step_span_args(profiled):
    sim = Simulator(DESIGNS["fifo"](), strategy="compiled")
    if profiled:
        profile.enable()
    tracing.enable()
    sim.step(37)
    tracing.disable()
    steps = [r for r in tracing.drain() if r["name"] == "step"]
    expected = {"strategy": "compiled", "cycles": 37}
    if profiled:
        expected["profiled"] = True
    assert [r["args"] for r in steps] == [expected]


def test_compile_line_counts_generic_procs():
    """A process without readable source is called as written, and the
    ``compile:`` line says how many such processes the emissions kept."""
    top = Component("lambdaseq")
    count = top.state(8)
    top.seq(eval("lambda sig: lambda: setattr(sig, 'next', sig.value + 1)")(
        count))
    profiler = profile.enable()
    Simulator(top, strategy="compiled").step(3)
    profile.disable()
    assert count.value == 3
    assert "0 opaque proc(s), 1 generic proc(s)" in profiler.report()


def test_compile_line_counts_recipe_cache_hits():
    """The second construction of a design is served from the recipe
    cache, and the ``compile:`` line says so."""
    _clear_recipes()
    profiler = profile.enable()
    stream("fifo", "compiled")
    stream("fifo", "compiled")
    profile.disable()
    total = sum(entry["seconds"] for entry in profiler.compiles)
    assert [line for line in profiler.report().splitlines()
            if line.startswith("compile:")] == [
        f"compile: 2 construction(s), 1 from the recipe cache, "
        f"{total:.3f} s total; 0 cyclic group(s), 0 opaque proc(s), "
        f"0 generic proc(s)"]

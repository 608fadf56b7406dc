"""``--profile``: a report over the run's spans and counter deltas.

``repro.obs.recording(profiling=True)`` traces the body and prints
:func:`repro.obs.export.profile_report`: the phase table, one ``kernel:``
line per settle strategy summed from the ``step`` and ``run_until`` spans,
and a ``compile:`` line read from the registry's counter deltas.  Recording
runs the loop an unrecorded run runs, so the received pixels must not
depend on it.
"""

import pytest

from repro.designs import VideoSystem, build_blur_pattern, build_saa2vga_pattern
from repro.obs import REGISTRY, export, recording, render_prometheus, tracing
from repro.rtl import Component, Simulator
from repro.rtl.compile import _clear_recipes
from repro.video import random_frame

DESIGNS = {
    "fifo": lambda: build_saa2vga_pattern("fifo"),
    "blur": lambda: build_blur_pattern(16),
}

#: design -> cycles the ``stream`` run below takes, under either strategy.
CYCLES = {"fifo": 102, "blur": 150}


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    tracing.disable()
    tracing.drain()


def stream(design, strategy):
    """37 cycles in one step, then single steps until 100 pixels arrive."""
    system = VideoSystem(DESIGNS[design](),
                         frames=[random_frame(16, 12, seed=3)])
    sim = Simulator(system, strategy=strategy)
    sim.step(37)
    sim.run_until(lambda: system.sink.count >= 100)
    return system.received_pixels()


def lines(out, prefix):
    return [line for line in out.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("design, strategy", [
    (design, strategy) for design in sorted(CYCLES)
    for strategy in ("compiled", "fixpoint")])
def test_profile_rows_and_pixels_match_an_unprofiled_run(design, strategy,
                                                          capsys):
    plain = stream(design, strategy)
    with recording(profiling=True):
        profiled = stream(design, strategy)
    [kernel] = lines(capsys.readouterr().out, "kernel:")
    assert kernel.startswith(f"kernel: {strategy} {CYCLES[design]} cycle(s) "
                             "in ")
    assert kernel.endswith("kcyc/s (2 span(s))")  # the step and run_until
    assert profiled == plain
    assert not tracing.enabled()


def test_batch_step_span_args():
    sim = Simulator(DESIGNS["fifo"](), strategy="compiled")
    tracing.enable()
    sim.step(37)
    sim.step()  # a single-cycle step records nothing
    tracing.disable()
    steps = [r for r in tracing.drain() if r["name"] == "step"]
    assert [r["args"] for r in steps] == [{"strategy": "compiled",
                                           "cycles": 37}]


def test_compile_line_counts_generic_procs(capsys):
    """A process without readable source is called as written, and the
    ``compile:`` line says how many such processes the emissions kept."""
    top = Component("lambdaseq")
    count = top.state(8)
    top.seq(eval("lambda sig: lambda: setattr(sig, 'next', sig.value + 1)")(
        count))
    with recording(profiling=True):
        Simulator(top, strategy="compiled").step(3)
    assert count.value == 3
    assert "0 opaque proc(s), 1 generic proc(s), 0 guarded" in \
        capsys.readouterr().out


def test_compile_line_counts_recipe_cache_hits(capsys):
    """The second construction of a design is served from the recipe
    cache, and the ``compile:`` line says so."""
    _clear_recipes()
    before = REGISTRY.counters().get("compile_seconds", 0)
    with recording(profiling=True):
        stream("fifo", "compiled")
        stream("fifo", "compiled")
    total = REGISTRY.counters()["compile_seconds"] - before
    assert lines(capsys.readouterr().out, "compile:") == [
        f"compile: 2 construction(s), 1 from the recipe cache, "
        f"{total:.3f} s total; 0 cyclic group(s), 0 opaque proc(s), "
        f"0 generic proc(s), 0 guarded, 0 analysis miss(es)"]


def test_an_opaque_design_moves_the_degraded_counters():
    """One combinational and one sequential process built by ``eval``
    have no readable source: the combinational one is opaque (the settle
    becomes a guarded convergence loop) and both are called as written."""
    top = Component("opaque")
    count = top.state(8)
    double = top.signal(8)
    top.comb(eval("lambda a, b: lambda: setattr(b, 'next', "
                  "(a.value * 2) & 255)")(count, double))
    top.seq(eval("lambda sig: lambda: setattr(sig, 'next', sig.value + 1)")(
        count))
    before = REGISTRY.counters()
    Simulator(top, strategy="compiled").step(3)
    deltas = {name: value - before.get(name, 0)
              for name, value in REGISTRY.counters().items()}
    assert (count.value, double.value) == (3, 6)
    assert (deltas["compile_opaque_procs"], deltas["compile_generic_procs"],
            deltas["compile_guarded"]) == (1, 2, 1)
    assert "repro_compile_opaque_procs_total" in render_prometheus()
    assert "1 opaque proc(s), 2 generic proc(s), 1 guarded" in \
        export.profile_report([], deltas)

"""Performance bench — streaming throughput of every evaluated design.

Complements Table 3 (which reports area and clock) with the cycle-accurate
throughput of each design/binding, confirming two statements of the paper:

* the copy and blur pipelines sustain about one pixel per clock cycle over
  on-chip bindings ("ideally a new filtered pixel can be generated at each
  clock cycle");
* the SRAM binding trades that throughput for cost ("performance will depend
  on memory access times").

It also reports simulator wall-clock performance (cycles simulated per
second) so regressions in the RTL kernel itself are visible.
"""

import time

import pytest

from bench_profile import record_metric, scaled, stimulus_seed
from repro.designs import (
    BlurCustomDesign,
    Saa2VgaCustomFIFO,
    Saa2VgaCustomSRAM,
    VideoSystem,
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_saa2vga_pattern,
    run_stream_through,
)
from repro.rtl import COMPILED, FIXPOINT, Simulator
from repro.video import flatten, golden_blur3x3, random_frame

FRAME_W, FRAME_H = scaled((24, 12), (12, 6))
FRAME = random_frame(FRAME_W, FRAME_H, seed=stimulus_seed(500))
PIXELS = flatten(FRAME)
BLUR_GOLDEN = flatten(golden_blur3x3(FRAME))

VARIANTS = {
    "saa2vga pattern/fifo": (lambda: build_saa2vga_pattern("fifo", capacity=32),
                             PIXELS),
    "saa2vga custom/fifo": (lambda: Saa2VgaCustomFIFO(capacity=32), PIXELS),
    "saa2vga pattern/sram": (lambda: build_saa2vga_pattern("sram", capacity=32),
                             PIXELS),
    "saa2vga custom/sram": (lambda: Saa2VgaCustomSRAM(capacity=32), PIXELS),
    "blur pattern": (lambda: build_blur_pattern(line_width=FRAME_W,
                                                out_capacity=32),
                     BLUR_GOLDEN),
    "blur custom": (lambda: BlurCustomDesign(line_width=FRAME_W,
                                             out_capacity=32),
                    BLUR_GOLDEN),
}


@pytest.mark.parametrize("label", list(VARIANTS))
def test_streaming_throughput(label, benchmark):
    factory, expected = VARIANTS[label]

    def run():
        return run_stream_through(factory(), FRAME, expected_outputs=len(expected))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["pixels"] == expected
    throughput = result["outputs"] / result["cycles"]
    print(f"\n{label}: {result['cycles']} cycles, "
          f"{result['outputs']} output pixels, "
          f"{throughput:.3f} pixels/cycle")

    if "sram" in label:
        assert throughput < 0.2, "SRAM binding is memory-bound by construction"
    elif "blur" in label:
        assert throughput > 0.5
    else:
        assert throughput > 0.8


def test_pattern_throughput_equals_custom_throughput(benchmark):
    """The pattern adds no cycle-level overhead either."""
    def run_pair(binding):
        if binding == "fifo":
            pattern = build_saa2vga_pattern("fifo", capacity=32)
            custom = Saa2VgaCustomFIFO(capacity=32)
        else:
            pattern = build_saa2vga_pattern("sram", capacity=32)
            custom = Saa2VgaCustomSRAM(capacity=32)
        p = run_stream_through(pattern, FRAME)["cycles"]
        c = run_stream_through(custom, FRAME)["cycles"]
        return p, c

    results = benchmark.pedantic(lambda: [run_pair("fifo"), run_pair("sram")],
                                 rounds=1, iterations=1)
    for pattern_cycles, custom_cycles in results:
        assert abs(pattern_cycles - custom_cycles) <= max(4, 0.05 * custom_cycles)


def test_simulation_kernel_speed(benchmark):
    """Wall-clock speed of the RTL kernel on the FIFO copy pipeline."""

    def run():
        return run_stream_through(build_saa2vga_pattern("fifo", capacity=32), FRAME)

    result = benchmark(run)
    assert result["outputs"] == len(PIXELS)


# -- simulator-kernel speed guards -----------------------------------------------
#
# Simulated cycles per wall-clock second, measured per design per settle
# strategy.  Construction (including the compiled backend's one-time
# analysis+codegen) happens outside the timed region: the guards protect the
# *kernel* hot path, and sweeps amortise compilation across a grid anyway.
# Measurements are lazy and cached so the guard tests share one run, and
# every number lands in the BENCH json artifact via ``record_metric``.

#: Enough queued frames for the timed region to dwarf timer noise.
SPEED_FRAMES = scaled(8, 6)

SPEED_DESIGNS = {
    "saa2vga_fifo": lambda: build_saa2vga_pattern("fifo", capacity=32),
    "saa2vga_sram": lambda: build_saa2vga_pattern("sram", capacity=32),
    "blur_pattern": lambda: build_blur_pattern(line_width=FRAME_W,
                                               out_capacity=32),
    "pipeline_dualpath": lambda: build_dual_path_saa2vga(capacity=16,
                                                         fifo_depth=8),
}

#: Expected output pixels per frame for each speed design (all are
#: identity streams except blur).
SPEED_GOLDEN = {
    "saa2vga_fifo": lambda: PIXELS,
    "saa2vga_sram": lambda: PIXELS,
    "blur_pattern": lambda: BLUR_GOLDEN,
    "pipeline_dualpath": lambda: PIXELS,
}

_cps_cache = {}


def cycles_per_second(design: str, strategy: str) -> float:
    """Best-of-3 simulated cycles/s for one design under one strategy."""
    key = (design, strategy)
    if key in _cps_cache:
        return _cps_cache[key]
    factory = SPEED_DESIGNS[design]
    first_frame_golden = SPEED_GOLDEN[design]()
    expected_per_frame = len(first_frame_golden)
    best = 0.0
    for _ in range(3):
        system = VideoSystem(factory(), frames=[FRAME] * SPEED_FRAMES)
        sim = Simulator(system, strategy=strategy)
        expected = expected_per_frame * SPEED_FRAMES
        start = time.perf_counter()
        sim.run_until(lambda: system.sink.count >= expected, 2_000_000)
        elapsed = time.perf_counter() - start
        assert system.sink.count == expected
        # Speed without correctness is no speed at all: the first frame's
        # content must be golden (later blur frames see history carried
        # across the frame boundary, so only the first is byte-comparable).
        assert system.received_pixels()[:len(first_frame_golden)] == \
            first_frame_golden
        best = max(best, sim.cycles / elapsed)
    _cps_cache[key] = best
    record_metric("cycles_per_second", design, strategy, round(best, 1))
    return best


def _speedup(design: str, fast: str, slow: str) -> float:
    ratio = cycles_per_second(design, fast) / cycles_per_second(design, slow)
    record_metric("speedup", design, f"{fast}_vs_{slow}", round(ratio, 3))
    print(f"\n{design}: {fast} {cycles_per_second(design, fast):,.0f} c/s, "
          f"{slow} {cycles_per_second(design, slow):,.0f} c/s "
          f"-> {ratio:.2f}x")
    return ratio


def test_compiled_backend_speedup_over_fixpoint(benchmark):
    """The compiled backend must beat the fixpoint oracle at least 2x.

    Measured ~7x on the reference container for the copy pipeline; the 2.0
    floor is the guarded acceptance criterion, with wide noise headroom.
    """
    speedup = benchmark.pedantic(_speedup,
                                 args=("saa2vga_fifo", COMPILED, FIXPOINT),
                                 rounds=1, iterations=1)
    assert speedup >= 2.0


def _obs_off_cps(design: str) -> float:
    """Compiled cycles/s measured *after* a tracing enable+disable cycle.

    The tracing check in ``Simulator.step`` must leave the disabled hot
    path untouched — including after a tracing session has come and
    gone.  Exercising enable → trace a little → disable before measuring
    catches any state the obs layer might leak into the fast loop.
    """
    key = (design, "compiled-obs-off")
    if key in _cps_cache:
        return _cps_cache[key]
    from repro.obs import tracing
    tracing.enable()
    warm = Simulator(SPEED_DESIGNS[design](), strategy=COMPILED)
    warm.step(64)
    tracing.disable()
    tracing.drain()
    factory = SPEED_DESIGNS[design]
    first_frame_golden = SPEED_GOLDEN[design]()
    expected = len(first_frame_golden) * SPEED_FRAMES
    best = 0.0
    for _ in range(3):
        system = VideoSystem(factory(), frames=[FRAME] * SPEED_FRAMES)
        sim = Simulator(system, strategy=COMPILED)
        start = time.perf_counter()
        sim.run_until(lambda: system.sink.count >= expected, 2_000_000)
        elapsed = time.perf_counter() - start
        assert system.sink.count == expected
        assert system.received_pixels()[:len(first_frame_golden)] == \
            first_frame_golden
        best = max(best, sim.cycles / elapsed)
    _cps_cache[key] = best
    record_metric("cycles_per_second", design, "compiled-obs-off",
                  round(best, 1))
    return best


def test_disabled_telemetry_keeps_compiled_throughput(benchmark):
    """Telemetry off must cost (nearly) nothing on the compiled hot path.

    The compiled-over-fixpoint floor is 2.0x; with the telemetry dispatch
    check in ``step()`` the same measurement after an enable+disable cycle
    must stay within 3% of it, i.e. >= 1.94x (mirrored in
    ``check_regression.py`` as the ``compiled-obs-off`` floor).  The
    structural half of the promise — zero span records, zero obs
    allocations — is pinned by ``tests/obs/test_overhead.py``.
    """
    def ratio():
        value = (_obs_off_cps("saa2vga_fifo")
                 / cycles_per_second("saa2vga_fifo", FIXPOINT))
        record_metric("speedup", "saa2vga_fifo",
                      "compiled-obs-off_vs_fixpoint", round(value, 3))
        print(f"\nsaa2vga_fifo: compiled(obs off) "
              f"{_obs_off_cps('saa2vga_fifo'):,.0f} c/s, fixpoint "
              f"{cycles_per_second('saa2vga_fifo', FIXPOINT):,.0f} c/s "
              f"-> {value:.2f}x")
        return value

    speedup = benchmark.pedantic(ratio, rounds=1, iterations=1)
    assert speedup >= 1.94


def test_compiled_backend_speedup_on_blur(benchmark):
    """The window/convolution pipeline also gains from compilation.

    Blur keeps one genuinely cyclic group (window feedback), so its gain is
    smaller than the copy pipeline's; measured ~2.2x over fixpoint, guarded
    at 1.5x.
    """
    speedup = benchmark.pedantic(_speedup,
                                 args=("blur_pattern", COMPILED, FIXPOINT),
                                 rounds=1, iterations=1)
    assert speedup >= 1.5


def test_compiled_backend_speedup_on_sram(benchmark):
    """The FSM- and SRAM-bound copy pipeline gains from compilation too.

    Its sequential controllers are mostly ``fsm.goto`` calls and SRAM
    handshakes, which the specialised bodies dissolve into slot writes;
    measured 13-17x over fixpoint, guarded at 7x (mirrored in
    ``check_regression.py``).
    """
    speedup = benchmark.pedantic(_speedup,
                                 args=("saa2vga_sram", COMPILED, FIXPOINT),
                                 rounds=1, iterations=1)
    assert speedup >= 7.0


# -- elaborated pipeline graphs (repro.flow) ---------------------------------


def test_pipeline_streaming_throughput(benchmark):
    """The dual-path graph pipeline sustains near one pixel per cycle.

    Split/merge rotation costs nothing in steady state (the two copy paths
    run at half rate each, in parallel); measured ~0.93 pixels/cycle,
    guarded at 0.6 to leave headroom for boundary effects on small frames.
    """
    def run():
        return run_stream_through(
            build_dual_path_saa2vga(capacity=16, fifo_depth=8), FRAME)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["pixels"] == PIXELS
    throughput = result["outputs"] / result["cycles"]
    print(f"\npipeline dual-path: {result['cycles']} cycles, "
          f"{throughput:.3f} pixels/cycle")
    assert throughput > 0.6


def test_pipeline_compiled_speedup_over_fixpoint(benchmark):
    """Elaborated pipelines must profit from the compiled backend too.

    The graph shell adds many small bridge processes — exactly the shape
    the compiled scheduler dissolves; measured ~5x over fixpoint on the
    dual-path pipeline, guarded at 1.5x.
    """
    speedup = benchmark.pedantic(
        _speedup, args=("pipeline_dualpath", COMPILED, FIXPOINT),
        rounds=1, iterations=1)
    assert speedup >= 1.5

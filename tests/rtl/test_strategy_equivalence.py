"""Differential tests: every settle strategy must agree exactly.

The event-driven scheduler and the compiled backend are optimisations, not
semantics changes: on every design in ``repro.designs`` all strategies must
produce identical pixel streams, identical cycle counts, identical
per-cycle signal traces, final memories and FSM transition records.  The fixpoint engine is the oracle because it
evaluates everything — it cannot miss a dependency.
"""

import pytest

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
from repro.rtl import (
    COMPILED,
    EVENT,
    FIXPOINT,
    FSM,
    Component,
    Recorder,
    SimulationError,
    Simulator,
)
from repro.video import flatten, golden_blur3x3, random_frame

#: The optimised strategies, each checked against the fixpoint oracle.
OPTIMISED = (EVENT, COMPILED)

FRAME = random_frame(10, 6, seed=77)
PIXELS = flatten(FRAME)
BLUR_GOLDEN = flatten(golden_blur3x3(FRAME))

DESIGNS = {
    "saa2vga pattern/fifo": (lambda: build_saa2vga_pattern("fifo", capacity=8),
                             PIXELS),
    "saa2vga pattern/sram": (lambda: build_saa2vga_pattern("sram", capacity=8),
                             PIXELS),
    "saa2vga custom/fifo": (lambda: Saa2VgaCustomFIFO(capacity=8), PIXELS),
    "saa2vga custom/sram": (lambda: Saa2VgaCustomSRAM(capacity=8), PIXELS),
    "blur pattern": (lambda: build_blur_pattern(line_width=10, out_capacity=8),
                     BLUR_GOLDEN),
    "blur custom": (lambda: BlurCustomDesign(line_width=10, out_capacity=8),
                    BLUR_GOLDEN),
    # Elaborated multi-stage pipeline graphs (repro.flow): split/merge over
    # two parallel copy paths, and a stream broadcast into a histogram tap.
    "flow dual-path": (lambda: build_dual_path_saa2vga(capacity=8,
                                                       fifo_depth=4),
                       PIXELS),
    "flow blur-hist": (lambda: build_blur_histogram_pipeline(line_width=10),
                       BLUR_GOLDEN),
    # Width-adapted pipeline: 24-bit endpoints over an 8-bit bus core (the
    # converters are auto-inserted by the elaborator).
    "flow rgb-bus": (lambda: build_rgb_over_bus_pipeline(capacity=8,
                                                         fifo_depth=4),
                     PIXELS),
}


def trace_design(factory, expected, strategy):
    """Simulate a design sampling *every* signal each cycle; also return
    the final contents of every memory and the transitions every FSM
    observed."""
    system = VideoSystem(factory(), frames=[FRAME])
    sim = Simulator(system, strategy=strategy)
    recorder = Recorder(sim, system.all_signals())
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    memories = [mem.dump() for mem in system.all_memories()]
    transitions = [(fsm.name, fsm.observed_transitions())
                   for comp in system.walk() for fsm in vars(comp).values()
                   if isinstance(fsm, FSM)]
    return (system.received_pixels(), sim.cycles, recorder.rows, memories,
            transitions, sim)


@pytest.mark.parametrize("strategy", OPTIMISED)
@pytest.mark.parametrize("label", sorted(DESIGNS))
def test_traces_identical_to_fixpoint_oracle(label, strategy):
    factory, expected = DESIGNS[label]
    pixels, cycles, rows, memories, transitions, sim = trace_design(
        factory, expected, strategy)
    fp_pixels, fp_cycles, fp_rows, fp_memories, fp_transitions, _ = \
        trace_design(factory, expected, FIXPOINT)
    assert pixels == expected
    assert pixels == fp_pixels
    assert cycles == fp_cycles
    assert rows == fp_rows
    assert memories == fp_memories
    assert transitions == fp_transitions
    if strategy == COMPILED:
        assert sim.analysis_misses == 0, \
            "static analysis under-approximated a write set"


@pytest.mark.parametrize("label", sorted(DESIGNS))
def test_compiled_analysis_resolves_all_shipped_processes(label):
    """No shipped process may fall back to the opaque convergence path, and
    the compiled settle must land exactly on the oracle's fixed point (the
    ``verify=True`` cross-check re-runs the fixpoint oracle every settle)."""
    factory, expected = DESIGNS[label]
    system = VideoSystem(factory(), frames=[FRAME])
    sim = Simulator(system, strategy=COMPILED, verify=True)
    report = sim.compile_report
    assert report.n_opaque_procs == 0, report.opaque_reasons
    assert not report.guarded
    assert report.n_transpiled_procs > 0, \
        "expected at least one process to dissolve into straight-line code"
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    assert system.received_pixels() == expected
    assert sim.analysis_misses == 0


@pytest.mark.parametrize("stalls", [(2, 0), (0, 3), (2, 3)])
def test_strategies_agree_under_backpressure(stalls):
    """Source/sink stalling exercises the idle paths the scheduler skips."""
    source_stall, sink_stall = stalls
    results = []
    for strategy in (EVENT, COMPILED, FIXPOINT):
        system = VideoSystem(build_saa2vga_pattern("fifo", capacity=8),
                             frames=[FRAME], source_stall=source_stall,
                             sink_stall=sink_stall)
        sim = system.simulate(len(PIXELS), max_cycles=50_000, strategy=strategy)
        results.append((system.received_pixels(), sim.cycles))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == PIXELS


def test_unknown_strategy_rejected():
    with pytest.raises(SimulationError):
        Simulator(Component("empty"), strategy="levelized")


class _Toggler(Component):
    """Minimal clocked design for reset-behaviour tests."""

    def __init__(self):
        super().__init__("toggler")
        self.count = self.state(8)
        self.parity = self.signal(1)

        @self.comb
        def decode():
            self.parity.next = self.count.value & 1

        @self.seq
        def advance():
            self.count.next = self.count.value + 1


@pytest.mark.parametrize("strategy", [EVENT, FIXPOINT, COMPILED])
def test_reset_clears_recorder_and_resettles(strategy):
    """Regression: reset() must clear watcher state and re-run the initial
    settle under the selected strategy, so post-reset traces start clean."""
    top = _Toggler()
    sim = Simulator(top, strategy=strategy)
    recorder = Recorder(sim, [top.count, top.parity])
    sim.step(5)
    assert len(recorder.rows) == 5
    sim.reset()
    assert sim.cycles == 0
    assert recorder.rows == []          # watcher state cleared
    assert top.count.value == 0
    assert top.parity.value == 0        # combinational outputs re-settled
    sim.step(3)
    rows = recorder.rows
    assert [row["cycle"] for row in rows] == [1, 2, 3]
    assert [row[top.parity.name] for row in rows] == [1, 0, 1]


@pytest.mark.parametrize("strategy", OPTIMISED)
@pytest.mark.parametrize("label", ["saa2vga pattern/fifo", "blur pattern"])
def test_reset_then_rerun_reproduces_first_run(label, strategy):
    """After reset() the optimised schedulers must start from scratch and
    reproduce the first run exactly (same pixels, same cycle count)."""
    factory, expected = DESIGNS[label]
    system = VideoSystem(factory(), frames=[FRAME])
    sim = Simulator(system, strategy=strategy)
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    first = (system.received_pixels(), sim.cycles)
    assert first[0] == expected

    sim.reset()
    system.sink.clear()
    # The source replays its queued pixels after reset; the run must match.
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    assert (system.received_pixels(), sim.cycles) == first


@pytest.mark.parametrize("strategy", [EVENT, FIXPOINT, COMPILED])
def test_preconstruction_next_pokes_commit_identically(strategy):
    """A legal two-phase poke made before the simulator exists must be
    committed by the initial settle under either strategy."""
    chain = _Toggler()
    chain.count.next = 5
    sim = Simulator(chain, strategy=strategy)
    assert chain.count.value == 5
    assert chain.parity.value == 1
    sim.step()
    assert chain.count.value == 6


@pytest.mark.parametrize("strategy", OPTIMISED)
def test_superseded_simulator_raises_instead_of_stale_results(strategy):
    """Attaching a second simulator to the same hierarchy must not leave the
    first one silently returning stale values."""
    top = _Toggler()
    first = Simulator(top, strategy=strategy)
    first.step(2)
    Simulator(top, strategy=FIXPOINT)  # steals/detaches the hooks
    with pytest.raises(SimulationError):
        first.step()
    with pytest.raises(SimulationError):
        first.settle()


@pytest.mark.parametrize("strategy", OPTIMISED)
def test_superseded_simulator_raises_before_mutating_state(strategy):
    """The detached check must fire *before* the clock edge: a stale
    simulator stepping must not advance registers now owned by the
    replacement simulator (a phantom clock edge)."""
    top = _Toggler()
    first = Simulator(top, strategy=strategy)
    first.step(2)
    replacement = Simulator(top, strategy=FIXPOINT)
    count_before = top.count.value
    with pytest.raises(SimulationError):
        first.step()
    assert top.count.value == count_before
    replacement.step()
    assert top.count.value == count_before + 1


def test_wrapped_watcher_reset_via_explicit_hook():
    """Watchers that are not bound methods register their reset explicitly."""
    import functools

    top = _Toggler()
    sim = Simulator(top, strategy=EVENT)
    rows = []
    sample = functools.partial(lambda store, cycle: store.append(cycle), rows)
    sim.add_watcher(sample, on_reset=rows.clear)
    sim.step(4)
    assert rows == [1, 2, 3, 4]
    sim.reset()
    assert rows == []
    sim.step(2)
    assert rows == [1, 2]


@pytest.mark.parametrize("strategy", OPTIMISED)
def test_mid_simulation_frame_queueing_wakes_source(strategy):
    """Queueing pixels after the source went idle must wake it again (the
    optimised schedulers see the growth through the source's sensitivity
    anchor)."""
    system = VideoSystem(build_saa2vga_pattern("fifo", capacity=8),
                         frames=[FRAME])
    sim = Simulator(system, strategy=strategy)
    sim.run_until(lambda: system.sink.count >= len(PIXELS), 50_000)
    # Let the pipeline drain completely and go quiescent.
    sim.step(20)
    assert system.sink.count == len(PIXELS)
    second = random_frame(10, 6, seed=78)
    system.source.queue_frame(second)
    sim.run_until(lambda: system.sink.count >= 2 * len(PIXELS), 50_000)
    assert system.received_pixels() == PIXELS + flatten(second)


@pytest.mark.parametrize("strategy", [EVENT, FIXPOINT, COMPILED])
def test_rgb_over_8bit_bus_roundtrips_bit_exact(strategy):
    """Acceptance: full 24-bit RGB values over the 8-bit shared bus come
    back bit-exact under every settle strategy, with the width converters
    inserted by the elaborator — the scenario code instantiates none."""
    frame = random_frame(10, 6, seed=79, max_value=(1 << 24) - 1)
    pixels = flatten(frame)
    pipeline = build_rgb_over_bus_pipeline()
    # The adapters really are elaborator-inserted, not scenario-declared.
    from repro.metagen import WidthDownConverter, WidthUpConverter

    assert [type(a) for a in pipeline.adapters] == \
        [WidthDownConverter, WidthUpConverter]
    system = VideoSystem(pipeline, frames=[frame])
    sim = system.simulate(len(pixels), max_cycles=100_000, strategy=strategy)
    assert system.received_pixels() == pixels
    if strategy == COMPILED:
        assert sim.analysis_misses == 0


# -- randomized differential testing (beyond directed inputs) ----------------


RANDOM_DESIGNS = {
    "saa2vga pattern/fifo": lambda: build_saa2vga_pattern("fifo", capacity=8),
    "saa2vga pattern/sram": lambda: build_saa2vga_pattern("sram", capacity=8),
}


def drive_random_schedule(factory, schedule, strategy):
    """Replay a pre-drawn (push, data, pop) schedule, tracing every signal."""
    design = factory()
    sim = Simulator(design, strategy=strategy)
    recorder = Recorder(sim, design.all_signals())
    for push, data, pop in schedule:
        design.input_fill.data.force(data)
        design.input_fill.push.force(push)
        design.output_drain.pop.force(pop)
        sim.step()
    return recorder.rows


@pytest.mark.parametrize("strategy", OPTIMISED)
@pytest.mark.parametrize("label", sorted(RANDOM_DESIGNS))
def test_randomized_stimulus_traces_identical_across_strategies(label, strategy):
    """Constrained-random stimulus (blind strobes included) must produce
    cycle-identical full-signal traces under every settle strategy — the
    directed-input equivalence tests above only exercise the polite
    ready/valid-respecting corner of the stimulus space."""
    from repro.testing import random_stream_schedule

    schedule = random_stream_schedule(seed=2025, cycles=600,
                                      name=f"diff.{label}")
    factory = RANDOM_DESIGNS[label]
    rows = drive_random_schedule(factory, schedule, strategy)
    oracle = drive_random_schedule(factory, schedule, FIXPOINT)
    assert rows == oracle, \
        f"strategy {strategy} diverged from the fixpoint oracle " \
        f"(reproduce with REPRO_SEED=2025)"


@pytest.mark.parametrize("target", ["queue/sram", "vector/bram",
                                    "read_buffer/linebuffer3"])
def test_verification_sessions_identical_across_strategies(target):
    """A whole constrained-random verification session — drivers, monitors,
    scoreboards, coverage — must be bit-identical under every strategy."""
    import json

    from repro.verify import verify

    outcomes = {}
    for strategy in (FIXPOINT, *OPTIMISED):
        result = verify(target, seed=4, cycles=700, strategy=strategy)
        outcomes[strategy] = (
            json.dumps(result.coverage.to_dict(), sort_keys=True),
            result.transactions,
            [str(v) for v in result.violations],
        )
    assert outcomes[EVENT] == outcomes[FIXPOINT]
    assert outcomes[COMPILED] == outcomes[FIXPOINT]

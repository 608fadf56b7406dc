"""The compiled simulator's per-cycle fast paths change speed, never values.

* ``Simulator.settle()`` under ``compiled`` returns 0 without running the
  generated settle when nothing touched the network since the last settle,
  and runs it after every kind of write that can move the fixed point;
* a plain compiled ``step()`` matches ``fixpoint`` cycle for cycle, and a
  profiled one still records every step.
"""

import pytest

from repro.designs import VideoSystem, build_saa2vga_pattern
from repro.obs import profile, tracing
from repro.rtl import (
    COMPILED,
    FIXPOINT,
    Component,
    Recorder,
    SimulationError,
    Simulator,
)
from repro.video import flatten, random_frame


class MemReader(Component):
    """A comb read of a memory word through an address register."""

    def __init__(self):
        super().__init__("memreader")
        self.addr = self.signal(2)
        self.mem = self.memory(4, 8, init=[10, 11, 12, 13])
        self.out = self.signal(8)
        self.ticks = self.state(8)

        @self.comb
        def read():
            self.out.next = self.mem[self.addr.value]

        @self.seq
        def tick():
            self.ticks.next = self.ticks.value + 1


@pytest.fixture(autouse=True)
def _telemetry_off():
    tracing.disable()
    profile.disable()
    yield
    tracing.disable()
    tracing.drain()
    profile.disable()


def counted(sim, monkeypatch):
    """Wrap the generated settle so the test can count its calls."""
    calls = []
    generated = sim._program.settle

    def wrapper(arg):
        calls.append(arg)
        return generated(arg)

    monkeypatch.setattr(sim._program, "settle", wrapper)
    return calls


def test_clean_compiled_settle_returns_zero_without_settling(monkeypatch):
    dut = MemReader()
    sim = Simulator(dut, strategy=COMPILED)
    calls = counted(sim, monkeypatch)
    assert sim.settle() == 0
    sim.step()
    assert sim.settle() == 0
    assert calls == []
    assert dut.out.value == 10


def poke_force(sim, dut):
    dut.addr.force(2)


def poke_memory(sim, dut):
    dut.mem[0] = 77


def poke_next(sim, dut):
    dut.addr.next = 2


def poke_reset_state(sim, dut):
    dut.addr.force(3)
    sim.settle()
    dut.reset_state()


@pytest.mark.parametrize("poke, expected", [
    (poke_force, 12), (poke_memory, 77), (poke_next, 12),
    (poke_reset_state, 10)])
def test_compiled_settle_runs_after_every_write(poke, expected, monkeypatch):
    dut = MemReader()
    sim = Simulator(dut, strategy=COMPILED)
    sim.step(2)
    calls = counted(sim, monkeypatch)
    poke(sim, dut)
    before = len(calls)
    assert sim.settle() >= 1
    assert len(calls) == before + 1
    assert dut.out.value == expected
    # Settled again: the next call is clean.
    assert sim.settle() == 0
    assert len(calls) == before + 1


def test_simulator_reset_settles_then_leaves_the_network_clean(monkeypatch):
    dut = MemReader()
    sim = Simulator(dut, strategy=COMPILED)
    dut.addr.force(1)
    sim.step(3)
    calls = counted(sim, monkeypatch)
    sim.reset()
    assert len(calls) == 1
    assert (sim.cycles, dut.out.value, dut.ticks.value) == (0, 10, 0)
    assert sim.settle() == 0
    assert len(calls) == 1


def test_detached_simulator_raises_on_a_clean_settle():
    dut = MemReader()
    stale = Simulator(dut, strategy=COMPILED)
    Simulator(dut, strategy=COMPILED)
    with pytest.raises(SimulationError, match="detached"):
        stale.settle()


def test_fixpoint_settle_always_runs(monkeypatch):
    sim = Simulator(MemReader(), strategy=FIXPOINT)
    calls = []
    oracle = sim._settle_fixpoint

    def wrapper():
        calls.append(1)
        return oracle()

    monkeypatch.setattr(sim, "_settle_fixpoint", wrapper)
    assert sim.settle() >= 1
    assert sim.settle() >= 1
    assert len(calls) == 2


def test_profiled_compiled_step_records_every_step():
    sim = Simulator(MemReader(), strategy=COMPILED)
    profiler = profile.enable()
    for _ in range(5):
        sim.step()
    sim.step(3)
    profile.disable()
    bucket = profiler.strategies[COMPILED]
    assert (bucket["steps"], bucket["cycles"]) == (6, 8)
    assert sim.cycles == 8


def stepped_trace(strategy, frame, pixels):
    system = VideoSystem(build_saa2vga_pattern("fifo", capacity=8),
                         frames=[frame])
    sim = Simulator(system, strategy=strategy)
    recorder = Recorder(sim, system.all_signals())
    while system.sink.count < pixels:
        assert sim.cycles < 20_000
        sim.settle()
        sim.step()
    return system.received_pixels(), sim.cycles, recorder.rows


def test_plain_compiled_step_matches_fixpoint_cycle_for_cycle():
    frame = random_frame(8, 4, seed=5)
    pixels = len(flatten(frame))
    compiled = stepped_trace(COMPILED, frame, pixels)
    assert compiled == stepped_trace(FIXPOINT, frame, pixels)
    assert compiled[0] == flatten(frame)

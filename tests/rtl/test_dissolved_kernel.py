"""The helpers the compiled kernel dissolves, checked against the oracle.

In the process bodies it specialises, the compiled backend inlines an
FSM's own ``goto``/``stay`` with a literal state name (a state-slot write
plus one transition record) and stores into a plain ``Memory``
(``mem[i] = v``), and ``Simulator.run_until`` calls the generated
``cycle()`` directly.  Every test here compares against the fixpoint
oracle, which runs the helpers as written.
"""

import pytest

import repro.verify.session as session
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
from repro.obs import tracing
from repro.rtl import (
    COMPILED,
    FIXPOINT,
    FSM,
    Component,
    ElaborationError,
    Memory,
    Recorder,
    SimulationError,
    Simulator,
)
from repro.verify.session import TARGETS, verify
from repro.video import flatten, random_frame

FRAME = random_frame(10, 6, seed=11)
PIXELS = flatten(FRAME)


def _run(factory, strategy, cycles):
    """Step ``factory()`` ``cycles`` times; return the design, its
    simulator and ``(signal rows, memories, transitions)``."""
    top = factory()
    sim = Simulator(top, strategy=strategy)
    recorder = Recorder(sim, top.all_signals())
    sim.step(cycles)
    fsms = [fsm for comp in top.walk() for fsm in vars(comp).values()
            if isinstance(fsm, FSM)]
    return top, sim, (recorder.rows, [mem.dump() for mem in top.all_memories()],
                      [fsm.observed_transitions() for fsm in fsms])


def _assert_exact_ints(signals, memories, label):
    for sig in signals:
        assert type(sig._value) is int and type(sig._next) is int, \
            f"{label}: {sig.name} holds {sig._value!r}/{sig._next!r}"
    for mem in memories:
        assert all(type(word) is int for word in mem._data), \
            f"{label}: memory {mem.name} holds a non-int word"


def _matches_oracle(factory, cycles):
    """The compiled run of ``factory()``, after checking its trace,
    memories and transitions against the fixpoint oracle's, and that every
    signal and memory word holds an exact int."""
    top, sim, traced = _run(factory, COMPILED, cycles)
    assert traced == _run(factory, FIXPOINT, cycles)[2]
    assert sim.analysis_misses == 0
    _assert_exact_ints(top.all_signals(), top.all_memories(), type(top).__name__)
    return top, sim


# -- FSM.goto / FSM.stay ---------------------------------------------------------


class _Sequencer(Component):
    """Two gotos in one edge, a goto from a helper between inline ones,
    and ``stay()`` while a hold counter runs."""

    def __init__(self):
        super().__init__("sequencer")
        fsm = self.fsm = FSM(self, ["A", "B", "C", "D"], name="seq")
        self.hold = self.state(2)

        @self.seq
        def control():
            if fsm.is_in("A"):
                fsm.goto("B")
                fsm.goto("C")  # the last goto of an edge wins
            elif fsm.is_in("C"):
                self._leave_c()
            elif fsm.is_in("D"):
                if self.hold.value < 2:
                    self.hold.next = self.hold.value + 1
                    fsm.stay()
                else:
                    self.hold.next = 0
                    fsm.goto("A")

    def _leave_c(self):
        self.fsm.goto("D")


def test_last_goto_wins_and_every_goto_is_recorded_in_order():
    top, sim = _matches_oracle(_Sequencer, cycles=11)
    assert top.fsm.observed_transitions() == [
        ("A", "B"), ("A", "C"), ("C", "D"), ("D", "A")]
    assert top.fsm.current == "C"
    source = sim.compiled_source
    # ``_leave_c`` is spliced in place of its call, its goto inlined too.
    assert "_f0[_s" in source and "_leave_c()" not in source
    assert "fsm.goto(" not in source and "fsm.stay()" not in source
    assert sim.compile_report.n_generic_procs == 0


def test_stay_keeps_the_state_and_records_nothing():
    top, sim = _matches_oracle(_Sequencer, cycles=2)
    sim.step(2)
    assert top.fsm.current == "D"
    assert top.fsm.observed_transitions() == [
        ("A", "B"), ("A", "C"), ("C", "D")]
    sim.step()
    assert top.fsm.current == "A"


class _GatedFSM(FSM):
    """An FSM subclass whose ``is_in`` is false while ``frozen`` is set."""

    frozen = False

    def is_in(self, state_name):
        return not self.frozen \
            and self.state.value == self._encoding[state_name]


class _Gated(Component):
    def __init__(self):
        super().__init__("gated")
        fsm = self.fsm = _GatedFSM(self, ["A", "B"], name="gated")
        fsm.frozen = True
        self.out = self.signal(1)

        @self.comb
        def decode():
            self.out.next = 1 if fsm.is_in("A") else 0

        @self.seq
        def toggle():
            if fsm.state.value == 0:
                fsm.goto("B")
            else:
                fsm.goto("A")


def test_overridden_is_in_is_called_not_rewritten():
    top, sim = _matches_oracle(_Gated, cycles=5)
    assert top.out.value == 0
    assert "1 if _p0_fsm.is_in('A') else 0" in sim.compiled_source
    assert sim.compile_report.n_call_procs == 1


class _CountingFSM(FSM):
    """An FSM subclass whose ``goto`` counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gotos = 0

    def goto(self, state_name):
        self.gotos += 1
        super().goto(state_name)


class _Counting(Component):
    def __init__(self):
        super().__init__("counting")
        fsm = self.fsm = _CountingFSM(self, ["A", "B", "C"], name="counting")

        @self.seq
        def advance():
            if fsm.is_in("A"):
                fsm.goto("B")
            elif fsm.is_in("B"):
                fsm.goto("C")
            else:
                fsm.goto("A")


def test_overridden_goto_is_called_not_rewritten():
    top, sim = _matches_oracle(_Counting, cycles=7)
    assert top.fsm.gotos == 7
    assert "fsm.goto('B')" in sim.compiled_source


class _Deferred(Component):
    """Gotos and an ``is_in`` whose state name is Python-side state
    rebound at run time: an attribute and a closure cell."""

    def __init__(self):
        super().__init__("deferred")
        fsm = self.fsm = FSM(self, ["A", "W", "B", "C"], name="deferred")
        self.after = "A"
        then = "A"

        def choose(name):
            nonlocal then
            then = name

        @self.seq
        def advance():
            if fsm.is_in("A"):
                self.after = "B"
                choose("C")
                fsm.goto("W")
            elif fsm.is_in("W"):
                fsm.goto(self.after)
            elif fsm.is_in(self.after):
                fsm.goto(then)
            else:
                fsm.goto("A")


def test_a_state_name_that_is_not_a_literal_stays_a_helper_call():
    top, sim = _matches_oracle(_Deferred, cycles=9)
    # Read at construction, ``self.after`` and ``then`` are "A"; the run
    # has rebound both before they are read.
    assert top.fsm.observed_transitions() == [
        ("A", "W"), ("W", "B"), ("B", "C"), ("C", "A")]
    source = sim.compiled_source
    # Each such goto is ``FSM.goto``'s own body spliced in its place,
    # encoding the name it is passed at run time.
    assert "_q0h0_state_name = _q0_self.after" in source
    assert "_q0h1_state_name = _q0_then" in source
    assert source.count(".encode(_q0h") == 2
    assert "_q0_fsm.is_in(_q0_self.after)" in source
    assert sim.compile_report.n_specialised_procs == 1


class _Wrapping(Component):
    """A three-state FSM: its 2-bit register can hold the unnamed code 3."""

    def __init__(self):
        super().__init__("wrapping")
        fsm = self.fsm = FSM(self, ["A", "B", "C"], name="wrap")

        @self.seq
        def advance():
            if fsm.is_in("A"):
                fsm.goto("B")
            else:
                fsm.goto("A")


@pytest.mark.parametrize("strategy", [COMPILED, FIXPOINT])
def test_goto_from_a_forced_unnamed_code_fails_when_decoded(strategy):
    top = _Wrapping()
    sim = Simulator(top, strategy=strategy)
    sim.step()
    top.fsm.state.force(3)
    sim.step(2)  # leaving code 3 no longer raises inside the clock edge
    assert top.fsm.current == "B"
    with pytest.raises(ElaborationError, match="encoding 3"):
        top.fsm.observed_transitions()


def test_dissolved_stream_designs_call_neither_goto_nor_setitem(monkeypatch):
    """saa2vga/sram runs no ``FSM.goto``; fifo, blur and dual-path run no
    ``Memory.__setitem__`` (nor does sram, whose stores are in its
    ``_complete_access`` helper, spliced in place of its calls)."""
    designs = {
        "sram": (lambda: build_saa2vga_pattern("sram", capacity=8), FSM,
                 "goto", len(PIXELS)),
        "fifo": (lambda: build_saa2vga_pattern("fifo", capacity=8), Memory,
                 "__setitem__", len(PIXELS)),
        "blur": (lambda: build_blur_pattern(line_width=10, out_capacity=8),
                 Memory, "__setitem__", 32),
        "dual-path": (lambda: build_dual_path_saa2vga(capacity=8,
                                                      fifo_depth=4),
                      Memory, "__setitem__", len(PIXELS)),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the compiled kernel must not call this helper")

    for name, (factory, owner, helper, outputs) in designs.items():
        system = VideoSystem(factory(), frames=[FRAME])
        sim = Simulator(system)
        with monkeypatch.context() as patch:
            patch.setattr(owner, helper, refuse)
            sim.run_until(lambda: system.sink.count >= outputs, 50_000)
        assert system.sink.count == outputs, name
        assert ".goto(" not in sim.compiled_source, name


# -- memory stores -----------------------------------------------------------------


class _Stores(Component):
    """Stores whose index wraps, whose value needs the mask, and whose
    index is a bare signal."""

    def __init__(self):
        super().__init__("stores")
        self.count = self.state(8, init=3)
        self.addr = self.state(2)
        self.mem = self.memory(4, 4)
        self.echo = self.state(4)

        @self.seq
        def write():
            self.mem[self.count.value + 5] = self.count.value * 7
            self.mem[self.addr] = self.count.value
            self.echo.next = self.mem[self.addr.value + 1]
            self.count.next = self.count.value + 1
            self.addr.next = self.addr.value + 3


def test_inline_store_wraps_the_index_and_masks_the_value():
    _, sim = _matches_oracle(_Stores, cycles=9)
    source = sim.compiled_source
    assert "_m0._data[(_s" in source and " + 5) % 4] = _s" in source
    assert " * 7 & 15" in source
    assert "_m0._data[int(_q0_self.addr) % 4] = _s" in source


class _LoggingMemory(Memory):
    """A memory subclass whose ``__setitem__`` logs every write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def __setitem__(self, addr, value):
        self.log.append((int(addr), int(value)))
        super().__setitem__(addr, value)


class _Logged(Component):
    def __init__(self):
        super().__init__("logged")
        self.count = self.state(4)
        self.mem = _LoggingMemory(4, 4, name="logged_mem")
        self._memories.append(self.mem)

        @self.seq
        def write():
            self.mem[self.count.value] = self.count.value + 1
            self.count.next = self.count.value + 1


def test_overridden_setitem_is_called_not_rewritten():
    top, sim = _matches_oracle(_Logged, cycles=6)
    assert top.mem.log == [(n, n + 1) for n in range(6)]
    assert "self.mem[_s" in sim.compiled_source
    assert "._data[" not in sim.compiled_source


class _MirroredMemory(Memory):
    """A memory subclass whose ``__getitem__`` reads address
    ``depth - 1 - i``."""

    def __getitem__(self, addr):
        return super().__getitem__(self.depth - 1 - int(addr))


class _Mirrored(Component):
    """A combinational and a sequential read of a mirrored memory."""

    def __init__(self):
        super().__init__("mirrored")
        self.addr = self.state(2)
        self.mem = _MirroredMemory(4, 8, name="mirrored_mem",
                                   init=[10, 20, 30, 40])
        self._memories.append(self.mem)
        self.comb_word = self.signal(8)
        self.seq_word = self.state(8)

        @self.comb
        def read():
            self.comb_word.next = self.mem[self.addr.value]

        @self.seq
        def advance():
            self.seq_word.next = self.mem[self.addr.value]
            self.addr.next = self.addr.value + 1


def test_overridden_getitem_is_called_not_rewritten():
    top = _Mirrored()
    sim = Simulator(top)
    words = []
    for _ in range(4):
        words.append(top.comb_word.value)
        sim.step()
    assert words == [40, 30, 20, 10]
    assert top.seq_word.value == 10
    top, sim = _matches_oracle(_Mirrored, cycles=9)
    source = sim.compiled_source
    assert source.count("_m0[") == 2 and "._data[" not in source


# -- exact ints everywhere ------------------------------------------------------------


SHIPPED = {
    "saa2vga pattern/fifo": lambda: build_saa2vga_pattern("fifo", capacity=8),
    "saa2vga pattern/sram": lambda: build_saa2vga_pattern("sram", capacity=8),
    "saa2vga custom/fifo": lambda: Saa2VgaCustomFIFO(capacity=8),
    "saa2vga custom/sram": lambda: Saa2VgaCustomSRAM(capacity=8),
    "blur pattern": lambda: build_blur_pattern(line_width=10, out_capacity=8),
    "blur custom": lambda: BlurCustomDesign(line_width=10, out_capacity=8),
    "flow dual-path": lambda: build_dual_path_saa2vga(capacity=8,
                                                      fifo_depth=4),
    "flow blur-hist": lambda: build_blur_histogram_pipeline(line_width=10),
    "flow rgb-bus": lambda: build_rgb_over_bus_pipeline(capacity=8,
                                                        fifo_depth=4),
}


@pytest.mark.parametrize("label", sorted(SHIPPED))
def test_shipped_designs_hold_exact_ints(label):
    system = VideoSystem(SHIPPED[label](), frames=[FRAME])
    sim = Simulator(system)
    sim.step(400)
    assert system.sink.count > 0
    _assert_exact_ints(system.all_signals(), system.all_memories(), label)


def test_verify_targets_hold_exact_ints(monkeypatch):
    made = []

    class _Kept(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(session, "Simulator", _Kept)
    for name in sorted(TARGETS):
        verify(name, seed=3, cycles=300)
        sim = made.pop()
        _assert_exact_ints(sim.top.all_signals(), sim.top.all_memories(),
                           name)


# -- run_until --------------------------------------------------------------------------


class _Counter(Component):
    def __init__(self):
        super().__init__("counter")
        self.count = self.state(8)

        @self.seq
        def advance():
            self.count.next = self.count.value + 1


def _stepped_until(sim, condition, budget):
    """The reference loop: ``run_until`` as a ``step()`` per cycle."""
    start = sim.cycles
    while not condition():
        if sim.cycles - start >= budget:
            raise SimulationError(f"condition not reached within {budget} "
                                  f"cycles")
        sim.step()
    return sim.cycles - start


@pytest.mark.parametrize("strategy", [COMPILED, FIXPOINT])
def test_run_until_matches_a_step_loop(strategy):
    outcomes = []
    for loop in (Simulator.run_until, _stepped_until):
        top = _Counter()
        sim = Simulator(top, strategy=strategy)
        seen, calls = [], []
        sim.add_watcher(seen.append)

        def condition():
            calls.append(sim.cycles)
            return top.count.value >= 9

        consumed = loop(sim, condition, 50)
        with pytest.raises(SimulationError) as error:
            loop(sim, lambda: calls.append(sim.cycles) and False, 4)
        outcomes.append((consumed, calls, seen, sim.cycles, str(error.value)))
    assert outcomes[0] == outcomes[1]
    consumed, calls, seen, cycles, message = outcomes[0]
    assert consumed == 9 and seen == list(range(1, 14)) and cycles == 13
    assert calls == [*range(10), *range(9, 14)]
    assert message == "condition not reached within 4 cycles"


def test_run_until_under_tracing_calls_the_compiled_cycle(monkeypatch):
    """Tracing times the loop an untraced run runs: one span around the
    generated ``cycle()`` calls, no ``Simulator.step`` per cycle."""
    top = _Counter()
    sim = Simulator(top)
    steps = []
    monkeypatch.setattr(sim, "step", steps.append)
    tracing.enable()
    try:
        assert sim.run_until(lambda: top.count.value >= 6) == 6
    finally:
        tracing.disable()
    spans = [r for r in tracing.drain() if r["ph"] == "X"]
    assert steps == []
    assert [(r["name"], r["args"]["cycles"]) for r in spans] == [
        ("settle", 6)]

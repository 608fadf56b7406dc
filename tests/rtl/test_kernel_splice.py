"""One Python frame per clock cycle: the compiled kernel splices bodies.

The compiled backend splices every sequential body into the generated
``cycle()``, every combinational call unit into the settle where it is
called, the settle into ``cycle()`` itself, and the body of each
statement-position method call in a spliced body in place of that call.
These tests pin that a simulated cycle enters no other generated frame,
and check each splice edge case cycle for cycle against the fixpoint
oracle, which calls every process and helper as written.
"""

import functools
import sys

import pytest

import repro.rtl.compile as rtl_compile
from repro.core.algorithms.base import Algorithm
from repro.designs import (
    VideoSystem,
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_saa2vga_pattern,
)
from repro.primitives.fifo import SyncFIFO
from repro.primitives.sram import AsyncSRAM
from repro.rtl import COMPILED, FIXPOINT, Component, Recorder, Simulator
from repro.video import random_frame

FRAME = random_frame(10, 6, seed=28)

#: Global read by ``_GlobalReader``; a test rebinds it between steps.
STEP_SIZE = 2


def _rows(factory, strategy, cycles, between=None):
    """Step ``factory()`` ``cycles`` times, calling ``between(top)`` halfway
    when given; return the simulator and every signal's trace."""
    top = factory()
    sim = Simulator(top, strategy=strategy)
    recorder = Recorder(sim, top.all_signals())
    sim.step(cycles // 2)
    if between is not None:
        between(top)
    sim.step(cycles - cycles // 2)
    return sim, recorder.rows


def _matches_oracle(factory, cycles=16, between=None):
    """The compiled simulator of ``factory()``, after checking its trace
    against the fixpoint oracle's, cycle for cycle."""
    sim, rows = _rows(factory, COMPILED, cycles, between)
    assert rows == _rows(factory, FIXPOINT, cycles, between)[1]
    assert sim.analysis_misses == 0
    return sim


def _edge(source):
    """The clock-edge part of a generated kernel: the spliced sequential
    bodies and their commits."""
    start = source.index("_rounds = _settle(sim)\n")
    return source[start:source.index("\n        if not sim._attached:", start)]


# -- one frame per cycle -------------------------------------------------------


#: name -> (first build, recipe hit at another capacity).
DESIGNS = {
    "saa2vga/fifo": (lambda: build_saa2vga_pattern("fifo", capacity=8),
                     lambda: build_saa2vga_pattern("fifo", capacity=16)),
    "saa2vga/sram": (lambda: build_saa2vga_pattern("sram", capacity=8),
                     lambda: build_saa2vga_pattern("sram", capacity=16)),
    "blur": (lambda: build_blur_pattern(line_width=10, out_capacity=8),
             lambda: build_blur_pattern(line_width=10, out_capacity=16)),
    "dual-path": (lambda: build_dual_path_saa2vga(capacity=8, fifo_depth=4),
                  lambda: build_dual_path_saa2vga(capacity=16, fifo_depth=4)),
}


def _entered(sim, cycles):
    """The code objects of every Python frame ``cycles`` steps enter."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        for _ in range(cycles):
            sim.step()
    finally:
        sys.setprofile(None)
    return codes


#: The statement helpers the shipped designs call from sequential bodies.
HELPERS = {AsyncSRAM._complete_access.__code__, Algorithm._account.__code__}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_a_cycle_enters_one_generated_frame(name):
    oracle = Simulator(VideoSystem(DESIGNS[name][0](), frames=[FRAME]),
                       strategy=FIXPOINT)
    helpers = HELPERS & set(_entered(oracle, 64))
    assert Algorithm._account.__code__ in helpers
    assert (AsyncSRAM._complete_access.__code__ in helpers) \
        == (name == "saa2vga/sram")
    rtl_compile._clear_recipes()
    for build, hit in zip(DESIGNS[name], (False, True)):
        system = VideoSystem(build(), frames=[FRAME])
        sim = Simulator(system)
        assert sim._program.cached is hit, name
        report = sim.compile_report
        codes = _entered(sim, 64)
        generated = {code.co_name for code in codes
                     if code.co_filename == "<repro.rtl.compile>"}
        # Comprehension frames (blur's window list on Python 3.10 and
        # 3.11) are expressions, not bodies: the splice leaves them.
        assert {n for n in generated if not n.startswith("<")} == {"cycle"}
        kept = {reason.split(":")[0] for reason in
                report.generic_reasons + report.kept_calls}
        processes = {proc.__code__: proc.__qualname__
                     for proc in (*sim._comb, *sim._seq)}
        called = {processes[code] for code in codes if code in processes}
        assert called <= kept, (name, called - kept)
        assert not HELPERS & set(codes)
        assert (report.n_generic_procs, report.kept_calls) == (0, [])
        assert sim.cycles == oracle.cycles == 64


# -- early returns ------------------------------------------------------------------


class _Returns(Component):
    """Early returns nested in ``if``/``elif`` branches."""

    def __init__(self):
        super().__init__("returns")
        self.count = self.state(8)
        self.mode = self.state(2)
        self.hold = self.state(4)

        @self.seq
        def advance():
            self.mode.next = self.mode.value + 1
            if self.hold.value:
                self.hold.next = self.hold.value - 1
                return
            elif self.mode.value == 2:
                if self.count.value % 2:
                    self.hold.next = 3
                    return
                self.count.next = self.count.value + 5
            else:
                self.count.next = self.count.value + 1
                return self.count.value
            self.hold.next = 1


def test_early_returns_nested_in_if_and_elif():
    sim = _matches_oracle(_Returns, cycles=40)
    edge = _edge(sim.compiled_source)
    assert "while True:" in edge and "break" in edge
    assert "return" not in edge and "_q0()" not in edge
    assert sim.compile_report.n_specialised_procs == 1


class _LoopReturn(Component):
    """A body and a helper that each return from inside a loop."""

    def __init__(self):
        super().__init__("loopreturn")
        self.mem = self.memory(4, 8, init=[3, 9, 4, 7])
        self.key = self.state(8, init=4)
        self.hit = self.state(3)
        self.found = self.state(3)

        @self.seq
        def scan():
            self.key.next = self.key.value + 1
            for i in range(4):
                if self.mem[i] == self.key.value:
                    self.hit.next = i
                    return
            self.hit.next = 7

        @self.seq
        def search():
            self._find(self.key.value)

    def _find(self, key):
        for i in range(4):
            if self.mem[i] == key - 1:
                self.found.next = i
                return
        self.found.next = 7


def test_a_return_inside_a_loop_keeps_the_call_and_says_why():
    sim = _matches_oracle(_LoopReturn, cycles=12)
    report = sim.compile_report
    assert report.generic_reasons == [
        "_LoopReturn.__init__.<locals>.scan: returns from inside a loop"]
    assert report.kept_calls == [
        "_LoopReturn._find: returns from inside a loop"]
    edge = _edge(sim.compiled_source)
    assert "_q0()" in edge and "_q1_self._find(" in edge


def _bump(sig):
    sig.next = sig.value + 1


class _Partial(Component):
    """A sequential process with no code object of its own."""

    def __init__(self):
        super().__init__("partial")
        self.count = self.state(8)
        self.seq(functools.partial(_bump, self.count))


def test_a_process_without_code_stays_a_call():
    sim = _matches_oracle(_Partial, cycles=5)
    report = sim.compile_report
    assert (report.n_specialised_procs, report.n_generic_procs) == (0, 1)
    assert report.generic_reasons[0].endswith(": source unavailable")
    assert "_q0()" in _edge(sim.compiled_source)


# -- names ------------------------------------------------------------------------


class _SharedNames(Component):
    """Two processes whose locals share names, one of them a call unit."""

    def __init__(self):
        super().__init__("shared")
        self.a = self.state(8)
        self.b = self.state(8, init=1)
        self.mix = self.signal(8)

        @self.comb
        def blend():
            count = self.a.value
            occ = self._half(self.b.value)
            self.mix.next = count + occ

        @self.seq
        def left():
            count = self.a.value + 3
            occ = count > 40
            self.a.next = 0 if occ else count

        @self.seq
        def right():
            count = self.mix.value
            occ = count & 3
            if occ:
                self.b.next = self.b.value + occ
            else:
                self.b.next = count

    def _half(self, value):
        return value // 2


def test_processes_sharing_local_names_keep_their_own():
    sim = _matches_oracle(_SharedNames, cycles=30)
    source = sim.compiled_source
    for tag in ("p0", "q0", "q1"):
        assert f"_{tag}_count = " in source and f"_{tag}_occ = " in source
    assert sim.compile_report.n_specialised_procs == 3


class _Rebound(Component):
    """A closure variable a test bench rebinds through ``nonlocal``."""

    def __init__(self):
        super().__init__("rebound")
        self.count = self.state(8)
        limit = 3

        def raise_limit(value):
            nonlocal limit
            limit = value

        self.raise_limit = raise_limit

        @self.seq
        def advance():
            if self.count.value < limit:
                self.count.next = self.count.value + 1


def test_a_rebound_closure_cell_is_read_live():
    sim = _matches_oracle(_Rebound, cycles=16,
                          between=lambda top: top.raise_limit(9))
    assert sim.top.count.value == 9
    assert "_q0_limit" in _edge(sim.compiled_source)
    assert sim.compile_report.n_specialised_procs == 1


class _GlobalReader(Component):
    """A body reading a global of its own module."""

    def __init__(self):
        super().__init__("globalreader")
        self.count = self.state(8)

        @self.seq
        def advance():
            self.count.next = self.count.value + STEP_SIZE


def test_a_module_global_is_read_live_from_its_module(monkeypatch):
    module = sys.modules[__name__]

    def build():
        monkeypatch.setattr(module, "STEP_SIZE", 2)
        return _GlobalReader()

    def rebind(_):
        monkeypatch.setattr(module, "STEP_SIZE", 5)

    sim = _matches_oracle(build, cycles=10, between=rebind)
    assert sim.top.count.value == 5 * 2 + 5 * 5
    assert "_Gq0['STEP_SIZE']" in _edge(sim.compiled_source)
    assert sim.compile_report.n_specialised_procs == 1


# -- statement helpers ------------------------------------------------------------


class _Helped(Component):
    """A statement helper called with positional and keyword arguments,
    returning early."""

    def __init__(self):
        super().__init__("helped")
        self.count = self.state(8)
        self.scale = self.state(2, init=1)

        @self.seq
        def advance():
            self.scale.next = self.scale.value + 1
            self._bump(self.count.value % 7, scale=2)
            self._bump(1, scale=self.scale.value)

    def _bump(self, amount, scale=1):
        if amount > 5:
            self.count.next = 0
            return
        elif amount == 3:
            return
        self.count.next = self.count.value + amount * scale


def test_a_statement_helper_binds_its_arguments_and_returns_early():
    sim = _matches_oracle(_Helped, cycles=40)
    report = sim.compile_report
    assert (report.n_spliced_calls, report.kept_calls) == (2, [])
    edge = _edge(sim.compiled_source)
    assert "_bump(" not in edge
    # A literal argument the helper never rebinds is written in.
    assert "_q0h1_amount" not in edge and "1 * _q0h1_scale" in edge


class _Quiet(Component):
    """A statement helper that only returns, alone in a branch."""

    def __init__(self):
        super().__init__("quiet")
        self.count = self.state(4)

        @self.seq
        def advance():
            if self.count.value % 2:
                self._nothing()
            self.count.next = self.count.value + 1

    def _nothing(self):
        """Nothing to do."""
        return


def test_a_helper_with_nothing_to_run_leaves_a_valid_branch():
    sim = _matches_oracle(_Quiet, cycles=6)
    assert sim.compile_report.n_spliced_calls == 1
    assert "_nothing(" not in _edge(sim.compiled_source)


# -- recipe hits ------------------------------------------------------------------


class _Ring(Component):
    """A FIFO, whose sequential body reads its own ``self.depth``."""

    def __init__(self, depth):
        super().__init__("ring")
        self.fifo = self.child(SyncFIFO("fifo", depth=depth, width=8))
        self.value = self.state(8)

        @self.comb
        def drive():
            self.fifo.push.next = 1
            self.fifo.din.next = self.value.value
            self.fifo.pop.next = 1 if self.value.value % 5 == 4 else 0

        @self.seq
        def advance():
            self.value.next = self.value.value + 1


def test_a_recipe_hit_reads_its_own_instance():
    rtl_compile._clear_recipes()
    first = _matches_oracle(lambda: _Ring(4), cycles=40)
    hit = _matches_oracle(lambda: _Ring(16), cycles=40)
    assert hit._program.cached and not first._program.cached
    assert hit.top.fifo.count.value > 4
    assert "_self.depth" in _edge(hit.compiled_source)

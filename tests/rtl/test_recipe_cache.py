"""The compiled backend's recipe cache: hits exactly when the guard holds.

A second design with the same process code objects is served from the
recipe cache only when every *decision* fact the first compile read —
closure cells, globals, subscripted elements and their indices, FSM
encodings, types, aliasing, ints in truth tests — reads the same on the
new design.  *Value* facts — masks, memory depths and instance ints that
only ever become literals — are written into the recipe's compiled module
per design, unless the emitter folded one into another constant.  Every
miss case below builds designs from the *same* code objects, so a cache
keyed by code objects alone would wrongly hit on each of them.
"""

import gc
import weakref

import pytest

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
from repro.obs import tracing
from repro.obs.metrics import REGISTRY, render_prometheus
from repro.rtl import (
    COMPILED,
    FIXPOINT,
    FSM,
    Component,
    Recorder,
    SimulationError,
    Simulator,
)
from repro.rtl.errors import RTLError
from repro.rtl.compile import analyze
from repro.rtl.compile import emit as rtl_emit
from repro.testing import random_stream_schedule
from repro.verify import mutate
from repro.verify.session import TARGETS, verify
from repro.video import flatten, random_frame

FRAME = random_frame(10, 6, seed=5)

DESIGNS = {
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


@pytest.fixture(autouse=True)
def _cold_cache():
    rtl_compile._clear_recipes()
    yield
    rtl_compile._clear_recipes()


def _hits() -> float:
    return REGISTRY.value("compile_recipe_hits")


def _construct(top, strategy=COMPILED):
    """``(simulator, served from the recipe cache)``."""
    before = _hits()
    sim = Simulator(top, strategy=strategy)
    return sim, _hits() == before + 1


def _fsms(top):
    return [(fsm.name, fsm.observed_transitions()) for comp in top.walk()
            for fsm in vars(comp).values() if isinstance(fsm, FSM)]


def _trace(top, sim, cycles):
    recorder = Recorder(sim, top.all_signals())
    sim.step(cycles)
    return (recorder.rows, [mem.dump() for mem in top.all_memories()],
            _fsms(top))


def _matches_fixpoint(factory, cycles=12):
    """Compile ``factory()``; require the fixpoint oracle's trace.  Returns
    whether the compile was a recipe-cache hit."""
    top = factory()
    sim, cached = _construct(top)
    compiled = _trace(top, sim, cycles)
    oracle_top = factory()
    oracle = _trace(oracle_top, Simulator(oracle_top, strategy=FIXPOINT),
                    cycles)
    assert compiled == oracle
    assert sim.analysis_misses == 0
    return cached


# -- hits --------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(DESIGNS))
def test_second_instance_of_a_shipped_design_hits(label):
    factory = DESIGNS[label]

    def run(strategy):
        system = VideoSystem(factory(), frames=[FRAME])
        sim, cached = _construct(system, strategy)
        traced = _trace(system, sim, 150)
        return traced, system.received_pixels(), sim, cached

    _, _, cold, cached = run(COMPILED)
    assert not cached
    traced, pixels, hit, cached = run(COMPILED)
    assert cached
    assert pixels
    assert (traced, pixels) == run(FIXPOINT)[:2]
    assert hit.analysis_misses == 0
    assert hit.compiled_source is cold.compiled_source
    # A hit's report equals a cold compile's but is the caller's own.
    rtl_compile._clear_recipes()
    _, _, recold, cached = run(COMPILED)
    assert not cached
    assert hit.compiled_source == recold.compiled_source
    assert hit.compile_report == recold.compile_report
    hit.compile_report.generic_reasons.append("changed by a caller")
    assert run(COMPILED)[2].compile_report == recold.compile_report


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_second_session_of_each_verify_target_hits(name):
    verify(name, seed=0)
    before = _hits()
    constructions = REGISTRY.value("simulator_constructions")
    result = verify(name, seed=1)
    assert _hits() - before == \
        REGISTRY.value("simulator_constructions") - constructions > 0
    oracle = verify(name, seed=1, strategy=FIXPOINT)
    assert (result.cycles, result.transactions, result.coverage_percent,
            result.violations, result.ok) == \
        (oracle.cycles, oracle.transactions, oracle.coverage_percent,
         oracle.violations, oracle.ok)


def _random_session(kind, binding, strategy=COMPILED):
    """Build a width-8, capacity-4 ``kind``/``binding`` container and run
    it under blind random push/pop strobes.  Returns the (hits, misses)
    the construction added to the recipe cache counters, and every signal
    and memory word cycle by cycle."""
    container = make_container(kind, binding, "dut", width=8, capacity=4)
    fill = getattr(container, "fill", None) or container.sink
    drain = getattr(container, "drain", None) or container.source
    counters = [REGISTRY.value(name) for name in (
        "compile_recipe_hits", "compile_recipe_misses")]
    sim = Simulator(container, strategy=strategy)
    added = (REGISTRY.value("compile_recipe_hits") - counters[0],
             REGISTRY.value("compile_recipe_misses") - counters[1])
    recorder = Recorder(sim, container.all_signals())
    for push, data, pop in random_stream_schedule(
            seed=2026, cycles=300, name=f"recipe.{kind}"):
        fill.data.force(data)
        fill.push.force(push)
        drain.pop.force(pop)
        sim.step()
    return added, (recorder.rows, [m.dump() for m in container.all_memories()])


@pytest.mark.parametrize("binding", ["fifo", "sram"])
def test_stream_kinds_over_one_binding_share_one_recipe(binding):
    """The three queue-ordered kinds wrap their storage with one shared
    process, so equal width and capacity compile once and hit twice."""
    added = []
    for kind in ("read_buffer", "write_buffer", "queue"):
        counts, trace = _random_session(kind, binding)
        added.append(counts)
        assert trace == _random_session(kind, binding, FIXPOINT)[1], kind
    assert added == [(0, 1), (1, 0), (1, 0)]


def test_ready_when_full_mutant_keeps_its_own_recipe():
    assert _random_session("read_buffer", "fifo")[0] == (0, 1)
    with mutate.inject("queue.ready_when_full"):
        counts, trace = _random_session("queue", "fifo")
        assert trace == _random_session("queue", "fifo", FIXPOINT)[1]
    assert counts == (0, 1)
    assert _random_session("queue", "fifo")[0] == (1, 0)


def test_video_systems_differing_only_in_frames_hit():
    frames = [random_frame(10, 6, seed=seed) for seed in range(3)]
    first = VideoSystem(build_saa2vga_pattern("fifo"), frames=frames[:1])
    _, cached = _construct(first)
    assert not cached
    system = VideoSystem(build_saa2vga_pattern("fifo"), frames=frames)
    sim, cached = _construct(system)
    assert cached
    expected = [p for frame in frames for p in flatten(frame)]
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    assert system.received_pixels() == expected


def test_hit_path_neither_analyses_nor_compiles(monkeypatch):
    Simulator(VideoSystem(build_saa2vga_pattern("sram"), frames=[FRAME]))

    def refuse(*args, **kwargs):
        raise AssertionError("the hit path must not run this")

    monkeypatch.setattr(rtl_compile, "analyze_proc", refuse)
    monkeypatch.setattr(rtl_emit, "compile", refuse, raising=False)
    system = VideoSystem(build_saa2vga_pattern("sram"), frames=[FRAME])
    sim, cached = _construct(system)
    assert cached
    sim.run_until(lambda: system.sink.count >= len(flatten(FRAME)), 50_000)
    assert system.received_pixels() == flatten(FRAME)


def test_the_cache_retains_no_design_instance():
    top = build_saa2vga_pattern("sram")
    sim = Simulator(VideoSystem(top, frames=[FRAME]))
    ref = weakref.ref(top)
    del sim, top
    gc.collect()
    assert rtl_compile._RECIPES
    assert ref() is None


def test_the_cache_never_grows_past_its_size():
    size = rtl_compile.RECIPE_CACHE_SIZE
    for step in range(size + 5):
        Simulator(_Offset(step))
        Simulator(_Scaled(step))
        assert sum(map(len, rtl_compile._RECIPES.values())) <= size
    # The most recent structures survive; the oldest were evicted.
    assert _matches_fixpoint(lambda: _Scaled(size + 4))
    assert not _matches_fixpoint(lambda: _Offset(0))


# -- misses --------------------------------------------------------------------


class _Offset(Component):
    """``out = a + k``: the closure cell ``k`` folds into a literal."""

    def __init__(self, k):
        super().__init__("offset")
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def add():
            self.out.next = self.a.value + k

        @self.seq
        def count():
            self.a.next = self.a.value + 3


class _Scaled(Component):
    """``out = a * self.gain``: a folded instance attribute."""

    def __init__(self, gain):
        super().__init__("scaled")
        self.gain = gain
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def scale():
            self.out.next = self.a.value * self.gain

        @self.seq
        def count():
            self.a.next = self.a.value + 1


#: Read by :class:`_Shifted` as a module global.
SHIFT = 1


class _Shifted(Component):
    """``out = (a << SHIFT) | self.bias``: a module global and a class
    attribute."""

    bias = 1

    def __init__(self):
        super().__init__("shifted")
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def shift():
            self.out.next = (self.a.value << SHIFT) | self.bias

        @self.seq
        def count():
            self.a.next = self.a.value + 1


class _Ports(Component):
    """``use`` reads ``y``; ``drive`` writes ``x``.  When both ports name one
    signal, ``drive`` must be scheduled before ``use``."""

    def __init__(self, aliased):
        super().__init__("ports")
        self.a = self.state(8)
        self.x = self.signal(8)
        self.y = self.x if aliased else self.signal(8)
        self.out = self.signal(8)

        @self.comb
        def use():
            self.out.next = self.y.value + 1

        @self.comb
        def drive():
            self.x.next = self.a.value

        @self.seq
        def count():
            self.a.next = self.a.value + 5


class _Table(Component):
    """``out = a + table[1]``: a constant subscript folds the element."""

    def __init__(self, table):
        super().__init__("table")
        self.table = table
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def lookup():
            self.out.next = self.a.value + self.table[1]

        @self.seq
        def count():
            self.a.next = self.a.value + 1


class _Cycler(Component):
    """An FSM whose ``is_in`` tests compile to its state encodings."""

    def __init__(self, states):
        super().__init__("cycler")
        fsm = self.fsm = FSM(self, states, initial="A")
        self.in_b = self.signal(1)

        @self.comb
        def decode():
            self.in_b.next = 1 if fsm.is_in("B") else 0

        @self.seq
        def step():
            if fsm.is_in("A"):
                fsm.goto("B")
            elif fsm.is_in("B"):
                fsm.goto("C")
            else:
                fsm.goto("A")


def test_another_fifo_capacity_hits():
    assert not _matches_fixpoint(
        lambda: VideoSystem(build_saa2vga_pattern("fifo", capacity=8),
                            frames=[FRAME]), cycles=80)
    assert _matches_fixpoint(
        lambda: VideoSystem(build_saa2vga_pattern("fifo", capacity=16),
                            frames=[FRAME]), cycles=80)
    assert _matches_fixpoint(
        lambda: VideoSystem(build_saa2vga_pattern("fifo", capacity=16),
                            frames=[FRAME]), cycles=80)


def test_mutation_then_clean_build_misses():
    def queue():
        return VideoSystem(build_saa2vga_pattern("fifo", capacity=4),
                           frames=[FRAME])

    with mutate.inject("fifo.drop_full_guard"):
        assert not _matches_fixpoint(queue, cycles=80)
    # Same process code objects, another closure-cell switch.
    with mutate.inject("fifo.pop_empty_guard"):
        assert not _matches_fixpoint(queue, cycles=80)
    assert not _matches_fixpoint(queue, cycles=80)
    assert _matches_fixpoint(queue, cycles=80)


def test_changed_closure_cell_scalar_misses():
    assert not _matches_fixpoint(lambda: _Offset(1))
    assert not _matches_fixpoint(lambda: _Offset(2))
    assert _matches_fixpoint(lambda: _Offset(2))


def test_changed_folded_instance_attribute_hits():
    assert not _matches_fixpoint(lambda: _Scaled(2))
    assert _matches_fixpoint(lambda: _Scaled(3))
    assert _matches_fixpoint(lambda: _Scaled(3))


def test_rebound_global_and_class_attribute_miss(monkeypatch):
    assert not _matches_fixpoint(_Shifted)
    assert _matches_fixpoint(_Shifted)
    monkeypatch.setitem(globals(), "SHIFT", 2)
    assert not _matches_fixpoint(_Shifted)
    monkeypatch.setattr(_Shifted, "bias", 0)
    assert not _matches_fixpoint(_Shifted)
    assert _matches_fixpoint(_Shifted)


def test_aliased_ports_miss():
    assert not _matches_fixpoint(lambda: _Ports(aliased=False))
    assert not _matches_fixpoint(lambda: _Ports(aliased=True))
    assert _matches_fixpoint(lambda: _Ports(aliased=True))
    assert _matches_fixpoint(lambda: _Ports(aliased=False))


def test_changed_const_subscripted_element_misses():
    assert not _matches_fixpoint(lambda: _Table([0, 7, 0]))
    assert not _matches_fixpoint(lambda: _Table([0, 9, 0]))
    assert _matches_fixpoint(lambda: _Table([1, 9, 2]))


def test_fsm_with_another_state_list_misses():
    assert not _matches_fixpoint(lambda: _Cycler(["A", "B", "C"]))
    assert not _matches_fixpoint(lambda: _Cycler(["B", "A", "C"]))
    assert _matches_fixpoint(lambda: _Cycler(["B", "A", "C"]))


# -- values and decisions ---------------------------------------------------------


class _Picked(Component):
    """``out = regs[self.k] + self.k``: ``k`` both picks a signal and folds
    into a literal."""

    def __init__(self, k):
        super().__init__("picked")
        self.k = k
        self.regs = [self.state(8, init=10 * i) for i in range(4)]
        self.out = self.signal(8)

        @self.comb
        def pick():
            self.out.next = self.regs[self.k].value + self.k

        @self.seq
        def count():
            for reg in self.regs:
                reg.next = reg.value + 1


class _Flagged(Component):
    """``out = a + 1 if self.flag else a``: an int in a truth test."""

    def __init__(self, flag):
        super().__init__("flagged")
        self.flag = flag
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def gate():
            if self.flag:
                self.out.next = self.a.value + 1
            else:
                self.out.next = self.a.value

        @self.seq
        def count():
            self.a.next = self.a.value + 3


class _Less(Component):
    """``out = a * (self.k - 1) - -self.k``: CPython folds both literals
    with their constant siblings."""

    def __init__(self, k):
        super().__init__("less")
        self.k = k
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def less():
            self.out.next = self.a.value * (self.k - 1) - -self.k

        @self.seq
        def count():
            self.a.next = self.a.value + 1


class _Folded(Component):
    """A comb signal and a register each written two ways: a constant
    expression CPython folds (``-2``, ``(1 << 3) - 1``, ``self.k - 1``)
    and a signal, so the mask stays in the other write too."""

    def __init__(self, width, k=5):
        super().__init__("folded")
        self.k = k
        self.a = self.state(width)
        self.neg = self.signal(width)
        self.low = self.signal(width)
        self.less = self.signal(width)
        self.neg_r = self.state(width)
        self.low_r = self.state(width)
        self.less_r = self.state(width)

        @self.comb
        def pick():
            if self.a.value & 1:
                self.neg.next = -2
                self.low.next = (1 << 3) - 1
                self.less.next = self.k - 1
            else:
                self.neg.next = self.a.value
                self.low.next = self.a.value
                self.less.next = self.a.value

        @self.seq
        def count():
            self.a.next = self.a.value + 1
            if self.a.value & 2:
                self.neg_r.next = -2
                self.low_r.next = (1 << 3) - 1
                self.less_r.next = self.k - 1
            else:
                self.neg_r.next = self.a.value
                self.low_r.next = self.a.value
                self.less_r.next = self.a.value


def test_a_folded_constant_is_masked_with_its_own_designs_mask():
    assert not _matches_fixpoint(lambda: _Folded(4))
    assert not _matches_fixpoint(lambda: _Folded(3))
    assert not _matches_fixpoint(lambda: _Folded(8, k=1))
    assert _matches_fixpoint(lambda: _Folded(3))
    assert _matches_fixpoint(lambda: _Folded(8, k=1))


def test_an_int_that_also_indexes_a_subscript_misses():
    assert not _matches_fixpoint(lambda: _Picked(2))
    assert not _matches_fixpoint(lambda: _Picked(1))
    assert _matches_fixpoint(lambda: _Picked(1))


def test_an_int_in_a_truth_test_misses():
    assert not _matches_fixpoint(lambda: _Flagged(1))
    assert not _matches_fixpoint(lambda: _Flagged(2))
    assert not _matches_fixpoint(lambda: _Flagged(0))
    assert _matches_fixpoint(lambda: _Flagged(2))


def test_an_int_folded_with_a_constant_misses():
    assert not _matches_fixpoint(lambda: _Less(3))
    assert not _matches_fixpoint(lambda: _Less(5))
    assert _matches_fixpoint(lambda: _Less(5))


def test_a_bool_attribute_misses():
    assert not _matches_fixpoint(lambda: _Scaled(True))
    assert not _matches_fixpoint(lambda: _Scaled(1))
    assert not _matches_fixpoint(lambda: _Scaled(False))
    assert _matches_fixpoint(lambda: _Scaled(False))


def test_fsm_with_another_state_count_misses():
    assert not _matches_fixpoint(lambda: _Cycler(["A", "B", "C"]))
    assert not _matches_fixpoint(lambda: _Cycler(["A", "B", "C", "D", "E"]))
    assert _matches_fixpoint(lambda: _Cycler(["A", "B", "C", "D", "E"]))


def test_a_placeholder_lost_to_folding_raises(monkeypatch):
    monkeypatch.setattr(rtl_emit, "_folds", lambda node: False)
    with pytest.raises(RTLError, match="folded"):
        Simulator(_Less(3))


def test_a_hit_writes_its_own_values_into_the_source():
    cold = Simulator(VideoSystem(build_saa2vga_pattern("sram", capacity=8),
                                 frames=[FRAME]))
    hit, cached = _construct(VideoSystem(
        build_saa2vga_pattern("sram", capacity=32), frames=[FRAME]))
    assert cached
    assert hit.compiled_source != cold.compiled_source
    rtl_compile._clear_recipes()
    recold = Simulator(VideoSystem(build_saa2vga_pattern("sram", capacity=32),
                                   frames=[FRAME]))
    assert hit.compiled_source == recold.compiled_source


# -- plain data behind a dynamic index ------------------------------------------


class _Lookup(Component):
    """``out = table[a]`` over a long list of ints."""

    def __init__(self, table):
        super().__init__("lookup")
        self.table = table
        self.a = self.state(8)
        self.out = self.signal(8)

        @self.comb
        def read():
            self.out.next = self.table[self.a.value]

        @self.seq
        def count():
            self.a.next = self.a.value + 7


def test_dynamic_index_into_plain_data_builds_no_large_union(monkeypatch):
    table = [(i * 37) & 0xFF for i in range(10 ** 6)]
    real_init = analyze.AnyOf.__init__

    def small_unions_only(self, options):
        options = list(options)
        assert len(options) <= 4, "a union over the plain-data elements"
        real_init(self, options)

    monkeypatch.setattr(analyze.AnyOf, "__init__", small_unions_only)
    assert not _matches_fixpoint(lambda: _Lookup(table))
    # Another table of plain data is the same structure.
    assert _matches_fixpoint(lambda: _Lookup(table[::-1]))


# -- telemetry ------------------------------------------------------------------


def _scraped(name):
    """``repro_<name>_total`` as ``GET /metrics`` renders it."""
    prefix = f"repro_{name}_total "
    lines = [line for line in render_prometheus().splitlines()
             if line.startswith(prefix)]
    return float(lines[0][len(prefix):]) if lines else 0.0


def test_counters_render_through_prometheus():
    names = ("compile_recipe_hits", "compile_recipe_misses",
             "compile_guarded", "compile_analysis_misses")
    before = {name: _scraped(name) for name in names}
    Simulator(_Offset(1))
    Simulator(_Offset(1))
    # A process without readable source is opaque: a guarded settle.
    top = Component("opaque")
    a, out = top.state(8), top.signal(8)
    top.comb(eval("lambda a, out: lambda: setattr(out, 'next', a.value)")(
        a, out))
    Simulator(top)
    # A process reading Python state: the verify cross-check catches the
    # stale literal the compiled settle baked in.
    table = _Table([0, 7, 0])
    sim = Simulator(table, verify=True)
    table.table[1] = 8
    with pytest.raises(SimulationError):
        sim.step()
    assert sim.analysis_misses == 1
    assert {name: _scraped(name) - before[name] for name in names} == {
        "compile_recipe_hits": 1, "compile_recipe_misses": 3,
        "compile_guarded": 1, "compile_analysis_misses": 1}


def test_compile_span_names_the_recipe_outcome():
    tracing.disable()
    tracing.drain()
    tracing.enable()
    Simulator(_Offset(4))
    Simulator(_Offset(4))
    tracing.disable()
    records = tracing.drain()
    compiles = [r for r in records if r["name"] == "compile"]
    assert [r["args"]["recipe"] for r in compiles] == ["miss", "hit"]
    children = [[r["name"] for r in records if r.get("parent") == c["id"]]
                for c in compiles]
    assert children == [["analyze", "schedule", "emit"], ["replay"]]

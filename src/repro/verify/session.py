"""One-call verification sessions: ``verify(target, seed, cycles)``.

A session wires a constrained-random driver set, passive protocol
monitors, a golden-model scoreboard and a covergroup around one *target* —
a shipped container binding, a whole pipeline design, or any user
component exposing ``input_fill``/``output_drain`` — and runs the loop
under any settle strategy:

    >>> from repro.verify import verify
    >>> result = verify("queue/fifo", seed=7)
    >>> result.ok, result.coverage_percent
    (True, 100.0)

Every shipped container binding has a registered target whose declared
covergroup closes (100 % of bins and cross combinations hit) within the
target's default cycle budget — enforced by ``tests/verify/``.

Reproduction recipe: every result carries its root seed; rerunning
``verify(target, seed=result.seed)`` (or the printed
``python -m repro.verify`` command) regenerates the identical stimulus,
cycle for cycle, under any strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import REGISTRY as _REGISTRY
from ..rtl import COMPILED, Component, Simulator
from .coverage import CoverageDB, CoverGroup
from .monitor import (
    ArbiterMonitor,
    AssocMonitor,
    ExpectedStreamMonitor,
    IteratorMonitor,
    ProtocolMonitor,
    RandomPortMonitor,
    StreamContainerMonitor,
    VerificationError,
    Violation,
    WidthAdapterMonitor,
    WindowBufferMonitor,
)
from .rng import SEED_ENV, RngPool
from .scoreboard import (
    AssocModel,
    ExpectedStreamModel,
    FifoModel,
    LifoModel,
    LineBufferModel,
    MultisetModel,
    VectorModel,
)
from .stimulus import (
    AssocOpDriver,
    IteratorOpDriver,
    RequestDriver,
    StreamConstraints,
    StreamPopDriver,
    StreamPushDriver,
)


@dataclass
class _Bench:
    """Everything a session loop needs for one target."""

    top: Component
    drivers: List[object]
    monitors: List[ProtocolMonitor]
    group: CoverGroup
    sampler: Callable[[], Dict[str, object]]


@dataclass(frozen=True)
class TargetSpec:
    """A registered verification target.

    Every registered target is held to full coverage closure by
    ``tests/verify/test_session.py`` — declaring a target *is* the claim
    that its covergroup closes within the default budget.
    """

    name: str
    default_cycles: int
    build: Callable[[RngPool], _Bench]


def repro_command(target: str, seed: int, cycles: int, strategy: str) -> str:
    """Shell command reproducing one session (live or stored).

    The seed is passed both ways on purpose: ``--seeds`` pins the CLI
    session, and the ``REPRO_SEED`` export covers everything else the run
    may touch (benchmark frames, testing helpers).
    """
    return (f"{SEED_ENV}={seed} PYTHONPATH=src python -m repro.verify "
            f"'{target}' --seeds {seed} --cycles {cycles} "
            f"--strategy {strategy}")


@dataclass
class VerifyResult:
    """Outcome of one verification session."""

    target: str
    seed: int
    cycles: int
    strategy: str
    coverage: CoverGroup
    violations: List[Violation] = field(default_factory=list)
    transactions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def coverage_percent(self) -> float:
        return self.coverage.percent

    def repro_command(self) -> str:
        """Shell command reproducing this exact session."""
        return repro_command(self.target, self.seed, self.cycles,
                             self.strategy)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (f"{self.target:<24} seed={self.seed:<3} "
                f"cycles={self.cycles:<6} cov={self.coverage_percent:5.1f}% "
                f"tx={self.transactions:<5} {status}")


# ---------------------------------------------------------------------------
# Covergroups
# ---------------------------------------------------------------------------

_STATES = {"accept": "accept", "blocked": "blocked", "idle": "idle"}


def _stream_covergroup(name: str) -> CoverGroup:
    group = CoverGroup(name)
    group.point("fill", dict(_STATES))
    group.point("drain", dict(_STATES))
    group.point("flow", {"flowing": "flowing", "backpressured": "backpressured",
                         "drained": "drained"})
    # Only structurally-reachable combinations are goals: a container cannot
    # be full and empty at once, so (blocked, blocked) is never declared.
    group.cross("fill_x_drain", ("fill", "drain"), [
        ("accept", "accept"), ("accept", "idle"), ("idle", "accept"),
        ("blocked", "idle"), ("idle", "blocked"), ("idle", "idle"),
    ])
    return group


def _window_covergroup(name: str, line_width: int) -> CoverGroup:
    group = CoverGroup(name)
    group.point("phase", {"warmup": "warmup", "streaming": "streaming"})
    group.point("fill", dict(_STATES))
    group.point("window", {"pop": "pop", "hold": "hold"})
    half = line_width // 2
    group.point("x", {"left": (0, half - 1), "right": (half, line_width - 1)})
    # Warm-up never blocks the fill side (pixels auto-advance into the line
    # memories), so only the streaming-phase blocked combination is a goal.
    group.cross("phase_x_fill", ("phase", "fill"), [
        ("warmup", "accept"), ("streaming", "accept"),
        ("streaming", "blocked"), ("streaming", "idle"),
    ])
    return group


def _vector_covergroup(name: str, capacity: int) -> CoverGroup:
    group = CoverGroup(name)
    group.point("op", {"read": "read", "write": "write", "seek": "seek",
                       "move": "move"})
    half = capacity // 2
    group.point("region", {"low": (0, half - 1), "high": (half, capacity - 1)})
    group.cross("op_x_region", ("op", "region"), [
        ("read", "low"), ("read", "high"), ("write", "low"), ("write", "high"),
    ])
    return group


def _assoc_covergroup(name: str, capacity: int) -> CoverGroup:
    group = CoverGroup(name)
    group.point("op", {
        "lookup_hit": "lookup_hit", "lookup_miss": "lookup_miss",
        "insert_new": "insert_new", "insert_update": "insert_update",
        "remove_hit": "remove_hit", "remove_miss": "remove_miss"})
    group.point("fullness", {"empty": 0, "partial": (1, capacity - 1),
                             "full": capacity})
    group.cross("op_x_fullness", ("op", "fullness"), [
        ("insert_new", "empty"), ("insert_new", "partial"),
        ("lookup_hit", "partial"), ("lookup_miss", "partial"),
        ("remove_hit", "partial"), ("insert_update", "full"),
    ])
    return group


def _adapter_covergroup(name: str) -> CoverGroup:
    group = CoverGroup(name)
    group.point("input", dict(_STATES))
    group.point("output", dict(_STATES))
    group.point("phase", {"load": "load", "shift": "shift"})
    # The two sides are phase-exclusive by construction: the wide side only
    # accepts while loading, the narrow side only delivers while shifting
    # (and vice versa for the up-converter), so accept-in-the-wrong-phase
    # combinations are structurally unreachable and never declared.
    group.cross("input_x_phase", ("input", "phase"), [
        ("accept", "load"), ("idle", "load"),
        ("blocked", "shift"), ("idle", "shift"),
    ])
    group.cross("output_x_phase", ("output", "phase"), [
        ("accept", "shift"), ("idle", "shift"),
        ("blocked", "load"), ("idle", "load"),
    ])
    return group


def _arbiter_covergroup(name: str, ways: int, policy: str) -> CoverGroup:
    group = CoverGroup(name)
    group.point("nreq", {"zero": 0, "one": 1, "many": (2, ways)})
    grant_bins = {"idle": "idle"}
    grant_bins.update({f"g{i}": f"g{i}" for i in range(ways)})
    group.point("grant", grant_bins)
    # Arbitration is combinational: with any request active a grant exists
    # the same cycle, so "idle" pairs only with "zero".  Every requester
    # must win both uncontended ("one") and contended ("many") rounds —
    # except the lowest-priority requester of a fixed-priority arbiter,
    # which by definition only ever wins alone (any competitor outranks
    # it), so its "many" combination is structurally unreachable.
    combos = [("zero", "idle")]
    combos += [("one", f"g{i}") for i in range(ways)]
    contendable = ways - 1 if policy == "priority" else ways
    combos += [("many", f"g{i}") for i in range(contendable)]
    group.cross("nreq_x_grant", ("nreq", "grant"), combos)
    return group


def _design_covergroup(name: str, serialized: bool = False) -> CoverGroup:
    group = CoverGroup(name)
    group.point("input", dict(_STATES))
    group.point("output", {"accept": "accept", "starved": "starved",
                           "idle": "idle"})
    # A fully-serialized pipeline (every element through a multi-cycle
    # external-SRAM handshake) moves one pixel at a time, so input-accept
    # and output-accept cycles strictly alternate: the accept/accept
    # combination is structurally unreachable there and a blocked/idle
    # goal replaces it.
    if serialized:
        combos = [("blocked", "idle"), ("accept", "starved"),
                  ("idle", "accept"), ("idle", "idle")]
    else:
        combos = [("accept", "accept"), ("accept", "starved"),
                  ("idle", "accept"), ("idle", "idle")]
    group.cross("input_x_output", ("input", "output"), combos)
    return group


# ---------------------------------------------------------------------------
# Target registry
# ---------------------------------------------------------------------------

TARGETS: Dict[str, TargetSpec] = {}


def _register(name: str, default_cycles: int):
    def deco(build: Callable[[RngPool], _Bench]):
        TARGETS[name] = TargetSpec(name, default_cycles, build)
        return build
    return deco


def _interfaces_of(container):
    """(sink-style, source-style) interface pair of a stream container."""
    fill = getattr(container, "fill", None) or container.sink
    drain = getattr(container, "drain", None) or container.source
    return fill, drain


def _stream_bench(pool: RngPool, kind: str, binding: str,
                  capacity: int = 4) -> _Bench:
    from ..core import make_container

    container = make_container(kind, binding, "dut", width=8,
                               capacity=capacity)
    fill, drain = _interfaces_of(container)
    is_sram = binding == "sram"
    is_stack = kind == "stack"
    # The queue-family SRAM bindings hold two extra elements in their
    # holding/prefetch registers; the stack SRAM binding's full guard
    # counts those registers inside its capacity.  The model capacity is
    # the *logical* bound the occupancy rule enforces.
    if is_stack:
        logical_capacity = capacity
        model = MultisetModel(capacity) if is_sram else LifoModel(capacity)
    else:
        logical_capacity = capacity + 2 if is_sram else capacity
        model = FifoModel(logical_capacity)
    monitor = StreamContainerMonitor(
        f"{kind}/{binding}", container, fill, drain, model,
        max_occupancy=logical_capacity,
        valid_stable=not (is_stack and is_sram),
        data_stable=not is_stack,
        check_conservation=not (is_stack and is_sram))
    # SRAM bindings serialise every element through a multi-cycle FSM, so
    # the drain side needs longer idle gaps for the prefetched element to
    # survive into a ready cycle (the "flowing" / accept-accept coverage
    # goals); the fast FIFO-class bindings use a denser mix.
    if is_sram:
        pop_constraints = StreamConstraints(burst=(1, 3), gap=(2, 9))
    else:
        pop_constraints = StreamConstraints(burst=(1, 4), gap=(0, 4))
    push = StreamPushDriver(fill, pool.stream("stimulus.fill"),
                            StreamConstraints(burst=(1, 6), gap=(0, 3)))
    pop = StreamPopDriver(drain, pool.stream("stimulus.drain"),
                          pop_constraints)
    group = _stream_covergroup(f"{kind}/{binding}")
    return _Bench(container, [push, pop], [monitor], group,
                  monitor.observation)


def _make_stream_target(kind: str, binding: str, cycles: int) -> None:
    @_register(f"{kind}/{binding}", cycles)
    def build(pool: RngPool, _kind=kind, _binding=binding) -> _Bench:
        return _stream_bench(pool, _kind, _binding)


for _kind, _binding, _cycles in [
    ("read_buffer", "fifo", 2000), ("read_buffer", "sram", 3000),
    ("write_buffer", "fifo", 2000), ("write_buffer", "sram", 3000),
    ("queue", "fifo", 2000), ("queue", "sram", 3000),
    ("stack", "lifo", 2000), ("stack", "sram", 4000),
]:
    _make_stream_target(_kind, _binding, _cycles)


@_register("read_buffer/linebuffer3", 3000)
def _linebuffer_bench(pool: RngPool) -> _Bench:
    from ..core import make_container

    line_width = 8
    container = make_container("read_buffer", "linebuffer3", "dut",
                               width=8, line_width=line_width)
    model = LineBufferModel(line_width)
    monitor = WindowBufferMonitor("read_buffer/linebuffer3", container, model)
    push = StreamPushDriver(container.fill, pool.stream("stimulus.fill"),
                            StreamConstraints(burst=(2, 8), gap=(0, 2)))
    pop = StreamPopDriver(container.window, pool.stream("stimulus.drain"),
                          StreamConstraints(burst=(1, 6), gap=(0, 3)))
    group = _window_covergroup("read_buffer/linebuffer3", line_width)
    return _Bench(container, [push, pop], [monitor], group,
                  monitor.observation)


class _VerifyHarness(Component):
    """Top component wrapping a container plus its iterator for simulation."""

    def __init__(self, name: str, container, iterator) -> None:
        super().__init__(name)
        self.container = self.child(container)
        self.iterator = self.child(iterator)


def _vector_bench(pool: RngPool, binding: str, capacity: int = 8) -> _Bench:
    from ..core import make_container, make_iterator

    container = make_container("vector", binding, "dut", width=8,
                               capacity=capacity)
    iterator = make_iterator(container, "random", readable=True,
                             writable=True, name="it")
    top = _VerifyHarness("harness", container, iterator)
    model = VectorModel(capacity, 8)
    port_monitor = RandomPortMonitor(f"vector/{binding}.port",
                                     container.port, model)
    it_monitor = IteratorMonitor(f"vector/{binding}.iterator",
                                 iterator.iface, capacity)
    driver = IteratorOpDriver(iterator.iface, pool.stream("stimulus.iterator"),
                              capacity)
    group = _vector_covergroup(f"vector/{binding}", capacity)

    seen = [0]

    def sampler() -> Dict[str, object]:
        if len(driver.completed) == seen[0]:
            return {}
        seen[0] = len(driver.completed)
        op = driver.completed[-1]
        obs: Dict[str, object] = {"op": op}
        if op in ("read", "write") and port_monitor.last_access is not None:
            obs["region"] = port_monitor.last_access[1]
        return obs

    return _Bench(top, [driver], [port_monitor, it_monitor], group, sampler)


def _make_vector_target(binding: str, cycles: int) -> None:
    @_register(f"vector/{binding}", cycles)
    def build(pool: RngPool, _binding=binding) -> _Bench:
        return _vector_bench(pool, _binding)


for _binding, _cycles in [("bram", 4000), ("sram", 6000),
                          ("registers", 3000)]:
    _make_vector_target(_binding, _cycles)


@_register("assoc_array/cam", 3000)
def _assoc_bench(pool: RngPool) -> _Bench:
    from ..core import make_container

    capacity = 4
    container = make_container("assoc_array", "cam", "dut", key_width=3,
                               value_width=8, capacity=capacity)
    model = AssocModel(capacity)
    monitor = AssocMonitor("assoc_array/cam", container, model)
    driver = AssocOpDriver(container.port, pool.stream("stimulus.assoc"),
                           capacity)
    group = _assoc_covergroup("assoc_array/cam", capacity)
    return _Bench(container, [driver], [monitor], group, monitor.observation)


# -- metagen components: width adapters and arbiters --------------------------


def _adapter_bench(pool: RngPool, direction: str, element_width: int = 24,
                   bus_width: int = 8) -> _Bench:
    from ..metagen import WidthDownConverter, WidthUpConverter

    name = f"adapter/{direction}"
    if direction == "down":
        converter = WidthDownConverter("dut", element_width=element_width,
                                       bus_width=bus_width)
        in_iface, out_iface = converter.wide_in, converter.narrow_out
        push_max = (1 << element_width) - 1
    else:
        converter = WidthUpConverter("dut", element_width=element_width,
                                     bus_width=bus_width)
        in_iface, out_iface = converter.narrow_in, converter.wide_out
        push_max = (1 << bus_width) - 1
    monitor = WidthAdapterMonitor(name, converter, direction)
    # Push gaps longer than one serialisation (beats) so the idle-while-
    # loadable coverage goal is reachable: a short gap would always be
    # swallowed by the shift phase of the previous element.
    push = StreamPushDriver(in_iface, pool.stream("stimulus.fill"),
                            StreamConstraints(burst=(1, 4), gap=(0, 7),
                                              data_max=push_max))
    pop = StreamPopDriver(out_iface, pool.stream("stimulus.drain"),
                          StreamConstraints(burst=(1, 5), gap=(0, 3)))
    group = _adapter_covergroup(name)
    return _Bench(converter, [push, pop], [monitor], group,
                  monitor.observation)


@_register("adapter/down", 1500)
def _adapter_down_bench(pool: RngPool) -> _Bench:
    return _adapter_bench(pool, "down")


@_register("adapter/up", 1500)
def _adapter_up_bench(pool: RngPool) -> _Bench:
    return _adapter_bench(pool, "up")


def _arbiter_bench(pool: RngPool, policy: str, ways: int = 3) -> _Bench:
    from ..primitives import PriorityArbiter, RoundRobinArbiter

    arbiter_cls = RoundRobinArbiter if policy == "roundrobin" else PriorityArbiter
    arbiter = arbiter_cls("dut", ways)
    name = f"arbiter/{policy}"
    monitor = ArbiterMonitor(name, arbiter, policy)
    driver = RequestDriver(arbiter.requests, pool.stream("stimulus.requests"),
                           hold=(1, 4), idle=(0, 3))
    group = _arbiter_covergroup(name, ways, policy)
    return _Bench(arbiter, [driver], [monitor], group, monitor.observation)


@_register("arbiter/priority", 1500)
def _arbiter_priority_bench(pool: RngPool) -> _Bench:
    return _arbiter_bench(pool, "priority")


@_register("arbiter/roundrobin", 1500)
def _arbiter_roundrobin_bench(pool: RngPool) -> _Bench:
    return _arbiter_bench(pool, "roundrobin")


# -- pipeline designs --------------------------------------------------------


def _pipeline_bench(pool: RngPool, design: Component,
                    group_name: Optional[str] = None) -> _Bench:
    """Bench for any design exposing ``input_fill``/``output_drain``.

    Stimulus is a constrained-random frame (full lines when the design
    declares a ``line_width``), pushed with random bursts and gaps while
    the drain side pops with its own random schedule; accepted outputs are
    checked against the design's golden model
    (:meth:`expected_output`, identity when the design does not define it).
    """
    width_bits = getattr(design, "width", 8)
    data_max = (1 << width_bits) - 1
    line_width = getattr(design, "line_width", 8)
    height = 10
    rng = pool.stream("stimulus.frame")
    pixels = [rng.randint(0, data_max) for _ in range(line_width * height)]
    expected_fn = getattr(design, "expected_output", None)
    expected = expected_fn(pixels) if expected_fn is not None else list(pixels)

    serialized = getattr(design, "binding", "") == "sram"
    monitor = ExpectedStreamMonitor(
        group_name or design.name, design.output_drain,
        ExpectedStreamModel(expected))
    push = StreamPushDriver(design.input_fill, pool.stream("stimulus.fill"),
                            StreamConstraints(burst=(2, 8), gap=(0, 2)),
                            data=pixels)
    pop = StreamPopDriver(design.output_drain, pool.stream("stimulus.drain"),
                          StreamConstraints(burst=(1, 4), gap=(0, 6)))
    group = _design_covergroup(group_name or design.name,
                               serialized=serialized)

    fill = design.input_fill

    def sampler() -> Dict[str, object]:
        if fill.push.value:
            in_state = "accept" if fill.ready.value else "blocked"
        else:
            in_state = "idle"
        obs: Dict[str, object] = {"input": in_state}
        obs.update(monitor.observation())
        return obs

    return _Bench(design, [push, pop], [monitor], group, sampler)


def _make_design_target(name: str, cycles: int, factory) -> None:
    @_register(name, cycles)
    def build(pool: RngPool, _factory=factory, _name=name) -> _Bench:
        return _pipeline_bench(pool, _factory(), group_name=_name)


def _saa2vga_factory(binding: str):
    def factory() -> Component:
        from ..designs import Saa2VgaPatternDesign

        return Saa2VgaPatternDesign(name="dut", binding=binding, width=8,
                                    capacity=8)
    return factory


def _blur_factory() -> Component:
    from ..designs import BlurPatternDesign

    return BlurPatternDesign(name="dut", line_width=8, width=8,
                             out_capacity=8)


_make_design_target("design/saa2vga-fifo", 2000, _saa2vga_factory("fifo"))
_make_design_target("design/saa2vga-sram", 4000, _saa2vga_factory("sram"))
_make_design_target("design/blur", 2500, _blur_factory)


@_register("design/flow-dualpath", 3000)
def _flow_dualpath_bench(pool: RngPool) -> _Bench:
    """An elaborated pipeline graph, verified like any design — plus one
    FIFO-ordered protocol monitor per elastic edge of the graph."""
    from ..designs import build_dual_path_saa2vga
    from ..flow import edge_monitors

    # Tight buffers on purpose: the input-blocked coverage goal needs the
    # whole pipeline to back-pressure within the session's random gaps.
    design = build_dual_path_saa2vga(name="dut", capacity=4, fifo_depth=2)
    bench = _pipeline_bench(pool, design, group_name="design/flow-dualpath")
    bench.monitors.extend(edge_monitors(design))
    return bench


def container_targets() -> List[str]:
    """Names of every registered container-binding target."""
    return [name for name in TARGETS
            if not name.startswith(("design/", "adapter/", "arbiter/"))]


def design_targets() -> List[str]:
    """Names of every registered pipeline-design target."""
    return [name for name in TARGETS if name.startswith("design/")]


def metagen_targets() -> List[str]:
    """Names of the standalone width-adapter and arbiter targets."""
    return [name for name in TARGETS
            if name.startswith(("adapter/", "arbiter/"))]


# ---------------------------------------------------------------------------
# The session runner
# ---------------------------------------------------------------------------


def _run_bench(bench: _Bench, target_name: str, seed: int, cycles: int,
               strategy: str) -> VerifyResult:
    sim = Simulator(bench.top, strategy=strategy)
    for monitor in bench.monitors:
        monitor.attach(sim)
    try:
        for _ in range(cycles):
            for driver in bench.drivers:
                driver.drive(sim.cycles)
            sim.settle()
            for driver in bench.drivers:
                driver.observe(sim.cycles)
            for monitor in bench.monitors:
                monitor.pre_edge(sim.cycles)
            bench.group.sample(**bench.sampler())
            sim.step()
    finally:
        for monitor in bench.monitors:
            monitor.detach()
    violations = [v for monitor in bench.monitors
                  for v in monitor.violations]
    violations.sort(key=lambda v: v.cycle)
    return VerifyResult(
        target=target_name, seed=seed, cycles=cycles, strategy=strategy,
        coverage=bench.group, violations=violations,
        transactions=sum(m.transactions for m in bench.monitors))


def _resolve_bench(target: Union[str, Component], pool: RngPool,
                   cycles: Optional[int]) -> tuple:
    """Build one bench for ``target``: (bench, name, cycle budget)."""
    if isinstance(target, str):
        try:
            spec = TARGETS[target]
        except KeyError:
            raise VerificationError(
                f"unknown verification target {target!r}; known targets: "
                f"{sorted(TARGETS)}") from None
        return (spec.build(pool), spec.name,
                spec.default_cycles if cycles is None else cycles)
    if not hasattr(target, "input_fill") or \
            not hasattr(target, "output_drain"):
        raise VerificationError(
            f"component {target!r} exposes no input_fill/output_drain "
            f"interfaces and is not a registered target name")
    return (_pipeline_bench(pool, target), f"component/{target.name}",
            1500 if cycles is None else cycles)


def verify(target: Union[str, Component], seed: int = 0,
           cycles: Optional[int] = None, strategy: str = COMPILED
           ) -> VerifyResult:
    """Run one constrained-random verification session.

    Parameters
    ----------
    target:
        A registered target name (see :data:`TARGETS`) or any component
        exposing ``input_fill``/``output_drain`` stream interfaces (a
        pipeline design); such a component may additionally implement
        ``expected_output(inputs) -> outputs`` as its golden model.
    seed:
        Root seed; every driver derives its own named stream from it, so
        one integer reproduces the whole session.
    cycles:
        Simulated cycle budget (default: the target's registered budget,
        or 1500 for ad-hoc components).
    strategy:
        Settle strategy — sessions behave identically under ``compiled``
        (the default) and ``fixpoint``.
    """
    pool = RngPool(seed)
    bench, name, budget = _resolve_bench(target, pool, cycles)
    return _run_bench(bench, name, pool.seed, budget, strategy)


def resolved_cycles(target: str, cycles: Optional[int]) -> int:
    """The cycle budget a session actually runs (store keys need this)."""
    if cycles is not None:
        return int(cycles)
    return TARGETS[target].default_cycles


class SessionEvaluator:
    """Memoized, store-backed evaluation of (target, seed) sessions.

    The one evaluation path of verification sessions: ``python -m
    repro.verify`` and the coverage search (:mod:`repro.search`) both run
    their sessions through it.  Every (target, seed) goes through a
    three-level lookup:

    1. the in-process memo (repeat proposals inside one search are free),
    2. the optional persistent :class:`~repro.serve.store.ResultStore`,
       under the :func:`~repro.serve.records.verify_key` identity of
       :meth:`key` — a warm store replays every session with zero
       simulations,
    3. one scalar :func:`verify` session per seed still uncached.

    Clean sessions are written back; failing sessions are never persisted,
    so they always re-run and print their reproduction command.
    """

    def __init__(self, cycles: Optional[int] = None,
                 strategy: str = COMPILED, store=None) -> None:
        self.cycles = cycles
        self.strategy = strategy
        if store is not None and not hasattr(store, "get"):
            from ..serve.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self._memo: Dict[str, dict] = {}
        #: Sessions served from the in-process memo.
        self.memo_hits = 0
        #: Sessions served from the persistent store.
        self.store_hits = 0
        #: Sessions that actually built a simulator.
        self.simulated = 0

    def key(self, target: str, seed: int) -> str:
        from ..serve.records import verify_key

        return verify_key(target, seed, resolved_cycles(target, self.cycles),
                          self.strategy)

    def evaluate(self, target: str, seeds: List[int]
                 ) -> List[Tuple[int, dict, str]]:
        """Verify-session records for ``seeds``, cheapest source first.

        Returns ``[(seed, record, source), ...]`` in the input seed order,
        where ``source`` is ``"memo"``, ``"store"`` or ``"sim"`` and
        ``record`` is the :func:`~repro.serve.records.verify_record` dict
        (its ``result.coverage_group`` merges straight into a
        :class:`~repro.verify.coverage.CoverageDB`).  Uncached seeds run
        one session each; only clean fresh sessions are persisted.
        """
        from ..serve.records import record_matches, verify_record

        out: Dict[int, Tuple[dict, str]] = {}
        fresh: List[int] = []
        for seed in seeds:
            key = self.key(target, seed)
            record = self._memo.get(key)
            if record is not None:
                self.memo_hits += 1
                _REGISTRY.inc("search_memo_hits")
                out[seed] = (record, "memo")
                continue
            if self.store is not None:
                record = self.store.get(key)
                if record_matches(record, "verify"):
                    self._memo[key] = record
                    self.store_hits += 1
                    _REGISTRY.inc("search_store_hits")
                    out[seed] = (record, "store")
                    continue
            fresh.append(seed)
        if fresh:
            results = [verify(target, seed=seed, cycles=self.cycles,
                              strategy=self.strategy)
                       for seed in fresh]
            self.simulated += len(fresh)
            _REGISTRY.inc("search_simulated", len(fresh))
            for result in results:
                key = self.key(target, result.seed)
                record = verify_record(result, key)
                self._memo[key] = record
                if self.store is not None and result.ok:
                    self.store.put(key, record)
                out[result.seed] = (record, "sim")
        return [(seed, out[seed][0], out[seed][1]) for seed in seeds]


def verify_all(targets: Optional[Sequence[str]] = None,
               seeds: Sequence[int] = (0,), cycles: Optional[int] = None,
               strategy: str = COMPILED) -> tuple:
    """Run a seed matrix over many targets; returns (results, merged DB)."""
    names = list(targets) if targets else list(TARGETS)
    results: List[VerifyResult] = []
    db = CoverageDB()
    for name in names:
        for seed in seeds:
            result = verify(name, seed=seed, cycles=cycles, strategy=strategy)
            results.append(result)
            db.add(result.coverage)
    return results, db

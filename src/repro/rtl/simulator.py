"""Cycle-accurate simulator with compiled and fixpoint settle strategies.

Every synchronous design in the reproduced paper is a collection of clocked
FSMs and memories connected by combinational glue.  The simulator therefore
uses a two-phase evaluation per clock cycle:

1. **Settle**: combinational processes are evaluated, with pending signal
   values committed at delta boundaries, until no signal changes (a fixed
   point).  Exceeding ``max_settle`` delta iterations raises
   :class:`CombinationalLoopError`.
2. **Clock edge**: all sequential processes run exactly once, observing the
   settled values; their pending assignments are then committed, followed by
   another settle phase so outputs reflect the new state within the same
   reported cycle boundary.

Two settle strategies implement that contract:

``strategy="compiled"`` (the default)
    Per-design specialisation: the combinational network is statically
    analysed (:mod:`repro.rtl.compile`), topologically ordered and emitted
    as one straight-line Python function with slot-indexed signal access,
    inlined bit-width masks and fused write+commit — a settle is a single
    pass with no scheduler overhead at all.  Sequential processes and the
    combinational processes settle calls whole run as copies of their
    bodies specialised onto the same slots, with ``FSM.goto``/``stay``
    and memory stores inlined, and the clock edge commits their writes
    with emitted lines rather than through ``Signal.next``.
    :meth:`Simulator.run_until` calls the generated ``cycle()`` directly,
    and :meth:`Simulator.settle` on a network nothing has touched since
    its last settle returns at once.
    True combinational feedback iterates in small local groups; processes
    the analyser cannot fully resolve demote the settle to a guarded
    convergence loop, so the strategy is never wrong, merely slower on
    such designs.  A design whose structure this process compiled before
    reuses that compile from the recipe cache (:mod:`repro.rtl.compile`).

``strategy="fixpoint"``
    The classic evaluate-everything discipline: all combinational processes
    are re-evaluated each delta iteration until no signal changes.  Kept as
    the differential-testing oracle — the compiled strategy must produce
    cycle-identical traces on every design
    (``tests/rtl/test_strategy_equivalence.py``).

Both strategies observe identical two-phase semantics: by the end of a settle
the network is at the same fixed point, so the engines agree cycle-for-cycle.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..obs import profile as _obs_profile
from ..obs import tracing as _obs_tracing
from ..obs.metrics import REGISTRY
from .component import Component, Memory
from .errors import CombinationalLoopError, SimulationError
from .signal import Signal

#: Settle-strategy names accepted by :class:`Simulator`.
FIXPOINT = "fixpoint"
COMPILED = "compiled"
STRATEGIES = (FIXPOINT, COMPILED)


class Simulator:
    """Drive a component hierarchy through clock cycles.

    Parameters
    ----------
    top:
        The root component.  All descendants' processes and signals are
        gathered at construction time; building structure after the simulator
        is created requires constructing a new simulator.
    max_settle:
        Maximum number of combinational delta iterations per settle phase.
    max_cycles:
        A global safety limit for :meth:`run_until`.
    strategy:
        ``"compiled"`` (default) for per-design specialised straight-line
        code, or ``"fixpoint"`` for the evaluate-everything oracle.
    verify:
        Only meaningful with ``strategy="compiled"``: after every settle,
        re-run the fixpoint oracle and raise if the compiled schedule left
        the network unsettled.  Slow; intended for differential testing.
    """

    def __init__(self, top: Component, max_settle: int = 64,
                 max_cycles: int = 10_000_000, strategy: str = COMPILED,
                 verify: bool = False) -> None:
        if strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown settle strategy {strategy!r}; expected one of "
                f"{STRATEGIES}")
        REGISTRY.inc("simulator_constructions")
        self.top = top
        self.max_settle = max_settle
        self.max_cycles = max_cycles
        self._strategy = strategy
        self._comb = top.all_comb_procs()
        self._seq = top.all_seq_procs()
        self._signals = top.all_signals()
        self._memories = top.all_memories()
        self._cycles = 0
        self._watchers: List[Callable[[int], None]] = []
        self._watcher_resets: List[Callable[[], None]] = []
        self._verify = verify
        #: Number of settles where the static analysis was caught missing a
        #: write (compiled strategy only); the simulator self-corrects by
        #: falling back to fixpoint convergence, but a non-zero count means
        #: the analyser should be fixed.  Always 0 on the shipped designs.
        self.analysis_misses = 0
        profiler = _obs_profile.active()
        if profiler is not None:
            profiler.record_sim(strategy)
        # Detach any compiled simulator a previous construction left on this
        # hierarchy, so writes stop feeding its stale queue.
        self._invalidate_previous()
        if strategy == COMPILED:
            from .compile import compile_design

            self._written: List[Signal] = []
            self._dirty = True
            for sig in self._signals:
                sig._sched = self
                # Writes made before the simulator existed (legal two-phase
                # pokes) predate the write hook; queue them so the initial
                # settle commits them exactly like the fixpoint strategy's
                # commit-everything pass would.
                if sig._next != sig._value:
                    self._written.append(sig)
            for mem in self._memories:
                mem._sched = self
            compile_start = time.perf_counter()
            with _obs_tracing.span("compile", strategy=COMPILED,
                                   design=type(top).__name__) as span:
                self._program = compile_design(self._comb, self._seq,
                                               max_settle=max_settle)
                span.args["recipe"] = ("hit" if self._program.cached
                                       else "miss")
            if self._program.report.guarded:
                REGISTRY.inc("compile_guarded")
            if profiler is not None:
                profiler.record_compile(time.perf_counter() - compile_start,
                                        self._program.report,
                                        hit=self._program.cached)
            #: Generated Python source of the specialised settle/cycle pair.
            self.compiled_source = self._program.source
            #: :class:`~repro.rtl.compile.emit.CompileReport` for this design.
            self.compile_report = self._program.report
        else:
            for sig in self._signals:
                sig._sched = None
            for mem in self._memories:
                mem._sched = None
        #: False once another simulator has attached to the same hierarchy;
        #: a compiled simulator without its write hooks would silently
        #: return stale values, so stale use raises instead.
        self._attached = True
        # Initial settle so combinational outputs are valid before cycle 0.
        self.settle()

    def _invalidate_previous(self) -> None:
        """Mark any simulator currently hooked to these signals as stale.

        Only compiled simulators depend on the per-signal hooks, so only
        they are invalidated; a fixpoint simulator over the same hierarchy
        keeps working regardless of who is attached.
        """
        previous = {sig._sched for sig in self._signals}
        previous.update(mem._sched for mem in self._memories)
        for sched in previous:
            if sched is not None and sched is not self:
                sched._attached = False

    def _check_attached(self) -> None:
        if not self._attached:
            raise SimulationError(
                "this compiled simulator was detached: another Simulator "
                "was constructed over the same component hierarchy; build a "
                "new simulator (or keep one per hierarchy)")

    # -- properties -------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Number of clock cycles executed so far."""
        return self._cycles

    @property
    def strategy(self) -> str:
        """The settle strategy this simulator was built with."""
        return self._strategy

    def add_watcher(self, func: Callable[[int], None],
                    on_reset: Optional[Callable[[], None]] = None) -> None:
        """Register a callable invoked after every cycle with the cycle index.

        Used by tracers and test benches to sample signals.  ``on_reset``
        optionally registers a hook :meth:`reset` calls to clear the
        watcher's recorded state; when omitted and ``func`` is a bound
        method whose instance exposes ``on_reset()``, that method is
        registered automatically (how :class:`~.trace.Recorder` and
        :class:`~.trace.VCDWriter` hook in).  Wrapped watchers
        (``functools.partial``, lambdas) that keep state must pass
        ``on_reset`` explicitly — introspection cannot find their owner.

        Watchers are removable with :meth:`remove_watcher`, so tracers and
        protocol monitors can detach cleanly when a simulator is reused.
        """
        self._watchers.append(func)
        if on_reset is None:
            owner = getattr(func, "__self__", None)
            on_reset = getattr(owner, "on_reset", None) if owner is not None else None
        # The reset-hook list is kept index-parallel to the watcher list
        # (None for stateless watchers) so remove_watcher can drop both.
        self._watcher_resets.append(on_reset)

    def remove_watcher(self, func: Callable[[int], None]) -> None:
        """Unregister a watcher (and its reset hook) added by :meth:`add_watcher`.

        The argument is matched by equality, so passing a fresh reference
        to the same bound method works.  Raises :class:`SimulationError`
        when the watcher was never registered — a silent no-op would mask
        double-detach bugs in tracers and monitors.
        """
        for index, registered in enumerate(self._watchers):
            if registered == func:
                del self._watchers[index]
                del self._watcher_resets[index]
                return
        raise SimulationError(
            f"cannot remove watcher {func!r}: it is not registered")

    # -- write-hook notifications (compiled strategy) ----------------------------

    def notify_changed(self, sig: Signal) -> None:
        """A signal's committed value changed outside the commit discipline.

        Called by :meth:`Signal.force` and :meth:`Signal.reset` so the next
        clock edge re-settles before its sequential processes run.
        """
        self._dirty = True

    def notify_memory(self, mem: Memory) -> None:
        """A memory word was written; the next clock edge re-settles first."""
        self._dirty = True

    def _raise_comb_loop(self) -> None:
        """Raise the standard non-convergence error (all strategies)."""
        raise CombinationalLoopError(
            f"combinational network did not settle after {self.max_settle} "
            f"iterations (cycle {self._cycles})")

    # -- compiled-strategy support hooks ------------------------------------------

    def _drain_check(self) -> None:
        """Commit leftover writes after a compiled settle.

        Writes the generated code does not own (helper calls, processes
        left generic) land in ``_written`` via the :attr:`Signal.next` hook;
        the generated code already committed every statically-known write,
        so surviving differences mean the analyser under-approximated a
        write set.  The simulator self-corrects by
        converging with the fixpoint oracle and records the miss.
        """
        missed = False
        written = self._written
        for sig in written:
            if sig._value != sig._next:
                sig._value = sig._next
                missed = True
        del written[:]
        if missed:
            self.analysis_misses += 1
            REGISTRY.inc("compile_analysis_misses")
            self._settle_fixpoint()
            del self._written[:]

    def _verify_settled(self) -> None:
        """Differential check: the compiled settle must be a fixed point."""
        for proc in self._comb:
            proc()
        changed = self._commit_all()
        del self._written[:]
        if changed:
            self.analysis_misses += 1
            REGISTRY.inc("compile_analysis_misses")
            raise SimulationError(
                "compiled settle did not reach the fixpoint oracle's fixed "
                "point; the static analysis missed a dependency")

    # -- core evaluation ----------------------------------------------------------

    def _commit_all(self) -> bool:
        changed = False
        for sig in self._signals:
            if sig.commit():
                changed = True
        return changed

    def _settle_fixpoint(self) -> int:
        """Run every combinational process to a fixed point (oracle strategy)."""
        for iteration in range(1, self.max_settle + 1):
            for proc in self._comb:
                proc()
            if not self._commit_all():
                return iteration
        self._raise_comb_loop()

    def step(self, cycles: int = 1) -> None:
        """Advance the design by ``cycles`` clock cycles.

        The telemetry check up front is the *entire* disabled-path cost:
        two module-attribute reads (``tests/obs/test_overhead.py`` pins
        the disabled step loop to zero telemetry allocations, and the
        ``compiled-obs-off`` floor in ``benchmarks/check_regression.py``
        pins its throughput).  Only while a profiler or tracer is
        installed does the instrumented wrapper run.
        """
        if cycles < 0:
            raise SimulationError(f"cannot step a negative number of cycles: {cycles}")
        if _obs_profile._ACTIVE is not None or _obs_tracing._STATE.active:
            self._step_instrumented(cycles)
            return
        self._step_plain(cycles)

    def _step_plain(self, cycles: int) -> int:
        """The uninstrumented hot loops — one per settle strategy.

        Returns the settle delta iterations the loop ran (for the compiled
        strategy, the convergence rounds the generated ``cycle()`` reports).
        """
        rounds = 0
        if self._strategy == COMPILED:
            cycle = self._program.cycle
            for _ in range(cycles):
                rounds += cycle(self)
            return rounds
        for _ in range(cycles):
            rounds += self._settle_fixpoint()
            for proc in self._seq:
                proc()
            self._commit_all()
            rounds += self._settle_fixpoint()
            self._cycles += 1
            for watcher in self._watchers:
                watcher(self._cycles)
        return rounds

    def _step_instrumented(self, cycles: int) -> None:
        """Step with telemetry: a batch-level span and a timer around the
        plain loop, reported to the profiler when one is installed.

        Spans stay *batch*-granular — one span per :meth:`step` call when
        it advances more than one cycle, never one per cycle — so tracing
        a million-cycle run records a handful of spans, not a million.
        """
        profiler = _obs_profile.active()
        span = _obs_tracing.NULL_SPAN
        if _obs_tracing._STATE.active and cycles > 1:
            span = _obs_tracing.span("step", strategy=self._strategy,
                                     cycles=cycles)
            if profiler is not None:
                span.args["profiled"] = True
        misses_before = self.analysis_misses
        with span:
            start = time.perf_counter()
            rounds = self._step_plain(cycles)
            elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.record_step(
                self._strategy, cycles, elapsed, settle_iterations=rounds,
                fallback_hits=self.analysis_misses - misses_before)

    def run_until(self, condition: Callable[[], bool],
                  max_cycles: Optional[int] = None) -> int:
        """Step until ``condition()`` is true; return the cycles consumed.

        Raises :class:`SimulationError` if the condition does not become true
        within the cycle budget — silent infinite simulations are always bugs.
        """
        if _obs_tracing._STATE.active:
            with _obs_tracing.span("settle", strategy=self._strategy,
                                   kind="run_until",
                                   design=type(self.top).__name__) as sp:
                consumed = self._run_until(condition, max_cycles)
                sp.args["cycles"] = consumed
            return consumed
        return self._run_until(condition, max_cycles)

    def _run_until(self, condition: Callable[[], bool],
                   max_cycles: Optional[int]) -> int:
        budget = self.max_cycles if max_cycles is None else max_cycles
        start = self._cycles
        # Without a settle profiler a step is one call of the compiled
        # ``cycle()``, so call it directly rather than through ``step()``
        # and ``_step_plain()``; with one, each cycle stays a profiled step.
        if self._strategy == COMPILED and _obs_profile._ACTIVE is None:
            advance, arg = self._program.cycle, self
        else:
            advance, arg = self.step, 1
        while not condition():
            if self._cycles - start >= budget:
                raise SimulationError(
                    f"condition not reached within {budget} cycles")
            advance(arg)
        return self._cycles - start

    def settle(self) -> int:
        """Expose a settle-only evaluation (useful after forcing signals).

        Returns the delta iterations used.  Under ``compiled``, a network
        nothing has touched since the last settle (no ``force``,
        ``reset``, memory store or ``.next`` write) is still at that
        settle's fixed point, so the call returns 0 rounds at once, as
        ``cycle()`` skips its leading settle; ``fixpoint`` always settles.
        """
        if self._strategy == COMPILED:
            if self._attached and not self._dirty and not self._written:
                return 0
            return self._program.settle(self)
        return self._settle_fixpoint()

    def reset(self) -> None:
        """Reset all state, the cycle counter and watcher state, then re-settle.

        Watchers whose owning object exposes an ``on_reset()`` method (the
        :class:`~.trace.Recorder` and :class:`~.trace.VCDWriter` tracers do)
        are told to clear their recorded state, so post-reset samples are not
        appended to a pre-reset history with clashing cycle numbers.  The
        initial settle is re-run under the simulator's configured strategy.
        """
        self.top.reset_state()
        self._cycles = 0
        if self._strategy == COMPILED:
            # Resets restored both committed and pending values, so stale
            # queue entries are harmless no-ops; re-run the full schedule.
            self._written = []
            self._dirty = True
        for hook in self._watcher_resets:
            if hook is not None:
                hook()
        self.settle()


def pulse(sim: Simulator, sig: Signal, cycles: int = 1, value: int = 1) -> None:
    """Drive ``sig`` to ``value`` for ``cycles`` cycles, then back to zero.

    A small test-bench convenience for strobe-style control inputs.
    """
    sig.force(value)
    sim.step(cycles)
    sig.force(0)

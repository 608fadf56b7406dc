"""Execution of design-space grids.

:func:`evaluate_point` builds, simulates and characterises one
:class:`~repro.explore.grid.DesignPoint`; :class:`ExplorationRunner` maps it
over a whole grid as a client of the job layer (:mod:`repro.serve.jobs`):
results are memoized under their store keys (a repeated point is never
re-simulated), probed in an optional persistent store, and the misses run
in-process or on a ``JobManager`` worker pool.  Every result carries the
measured streaming throughput, the estimated FPGA resources and a
functional-verification verdict against the golden model, so a sweep
doubles as a regression net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import tracing as _obs_tracing
from ..obs.metrics import REGISTRY as _REGISTRY
from ..designs import (
    BlurPatternDesign,
    Saa2VgaPatternDesign,
    run_stream_through,
)
from ..rtl import COMPILED, STRATEGIES, Component
from ..synth import estimate_design, estimate_power_mw
from ..video import GRAY8, RGB24, RGB565, flatten, golden_blur3x3, random_frame

PIXEL_FORMATS = {fmt.name: fmt for fmt in (GRAY8, RGB24, RGB565)}

#: Strategy alias: pick the fastest backend for sweeps.  The compiled
#: backend wins on every shipped design (it is differentially verified
#: against the oracle in ``tests/rtl/test_strategy_equivalence.py``), and its
#: one-time compile cost is amortised across a sweep because design classes
#: share process code objects.
AUTO = "auto"


def resolve_strategy(strategy: str) -> str:
    """Map the ``"auto"`` alias to a concrete settle strategy."""
    if strategy == AUTO:
        return COMPILED
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected {AUTO!r} or one of "
            f"{STRATEGIES}")
    return strategy


def build_design(point) -> Component:
    """Instantiate the design a point describes (fresh, unshared hierarchy).

    Points may carry their own builder (``point.build()``) — that is how
    the pipeline-composition axes of :mod:`repro.flow.sweep` plug into the
    same runner — otherwise the point names one of the built-in families.
    """
    if hasattr(point, "build"):
        return point.build()
    fmt = PIXEL_FORMATS[point.pixel_format]
    if point.design == "saa2vga":
        return Saa2VgaPatternDesign(
            name=f"saa2vga_{point.design_hash()}", binding=point.binding,
            width=fmt.width, capacity=point.capacity)
    if point.design == "blur":
        return BlurPatternDesign(
            name=f"blur_{point.design_hash()}", line_width=point.frame_width,
            width=fmt.width, out_capacity=point.capacity)
    raise ValueError(f"unknown design {point.design!r}")


def stimulus_frame(point):
    """Deterministic stimulus for a point (seeded from its design hash).

    A point may pin its own stimulus ceiling (``stimulus_max_value``) when
    its datapath is narrower than its nominal pixel format — e.g. a
    pipeline sweep over sub-8-bit bus widths; otherwise the format's full
    value range is used.
    """
    fmt = PIXEL_FORMATS[point.pixel_format]
    max_value = getattr(point, "stimulus_max_value", None)
    if max_value is None:
        max_value = fmt.max_value
    seed = int(point.design_hash()[:8], 16)
    return random_frame(point.frame_width, point.frame_height, seed=seed,
                        max_value=max_value)


def golden_output(point, frame) -> list:
    """The expected output pixels for one point's stimulus frame."""
    if hasattr(point, "golden"):
        return point.golden(frame)
    if point.design == "blur":
        return flatten(golden_blur3x3(frame))
    return flatten(frame)


@dataclass(frozen=True)
class ExplorationResult:
    """Characterisation of one simulated design point."""

    point: "DesignPoint"
    cycles: int
    outputs: int
    throughput: float
    ffs: int
    luts: int
    brams: int
    fmax_mhz: float
    power_mw: float
    verified: bool
    #: Functional-coverage percentage from the constrained-random
    #: verification session (None when the sweep ran with ``verify=False``).
    coverage_pct: Optional[float] = None
    #: Number of protocol/scoreboard violations that session flagged.
    coverage_violations: Optional[int] = None

    def row(self) -> Dict[str, object]:
        """One report-table row (stable column order)."""
        row = {
            "design": self.point.design,
            "binding": self.point.binding,
            "format": self.point.pixel_format,
            "frame": f"{self.point.frame_width}x{self.point.frame_height}",
            "capacity": self.point.capacity,
            "cycles": self.cycles,
            "pix/cycle": round(self.throughput, 3),
            "FFs": self.ffs,
            "LUTs": self.luts,
            "blockRAM": self.brams,
            "clk_MHz": round(self.fmax_mhz, 1),
            "power_mW": round(self.power_mw, 1),
            "ok": "yes" if self.verified else "NO",
        }
        if self.coverage_pct is not None:
            row["cov%"] = round(self.coverage_pct, 1)
            row["cr_ok"] = "yes" if not self.coverage_violations else "NO"
        return row


def _characterise(point, design, pixels, cycles, golden,
                  verify: bool, verify_seed: int, verify_cycles: int,
                  verify_strategy: str) -> ExplorationResult:
    """Assemble one :class:`ExplorationResult` from a finished simulation."""
    area = estimate_design(design)
    coverage_pct = coverage_violations = None
    if verify:
        from ..verify.session import verify as run_verify

        session = run_verify(build_design(point), seed=verify_seed,
                             cycles=verify_cycles, strategy=verify_strategy)
        coverage_pct = session.coverage_percent
        coverage_violations = len(session.violations)
    outputs = len(pixels)
    return ExplorationResult(
        point=point,
        cycles=cycles,
        outputs=outputs,
        throughput=outputs / max(1, cycles),
        ffs=area.total.ffs,
        luts=area.total.total_luts,
        brams=area.total.brams,
        fmax_mhz=area.fmax_mhz,
        power_mw=estimate_power_mw(area),
        verified=pixels == golden,
        coverage_pct=coverage_pct,
        coverage_violations=coverage_violations,
    )


def evaluate_point(point, strategy: str = AUTO,
                   max_cycles: int = 2_000_000, verify: bool = False,
                   verify_seed: int = 0,
                   verify_cycles: int = 1500) -> ExplorationResult:
    """Build, simulate, verify and characterise one design point.

    With ``verify=True`` the point is additionally run through a
    constrained-random :func:`repro.verify.session.verify` session (on a
    fresh design instance, with its own seeded stimulus) and the result
    carries the session's functional-coverage percentage and violation
    count alongside the directed-test verdict.

    Worker processes run it through :func:`repro.serve.jobs.evaluate_shard`.
    """
    strategy = resolve_strategy(strategy)
    with _obs_tracing.span("explore.point", strategy=strategy,
                           design=getattr(point, "design",
                                          type(point).__name__)):
        frame = stimulus_frame(point)
        golden = golden_output(point, frame)
        with _obs_tracing.span("build"):
            design = build_design(point)
        result = run_stream_through(design, frame,
                                    expected_outputs=len(golden),
                                    max_cycles=max_cycles, strategy=strategy)
        with _obs_tracing.span("characterize", verify=verify):
            return _characterise(point, design, result["pixels"],
                                 result["cycles"], golden, verify,
                                 verify_seed, verify_cycles,
                                 verify_strategy=strategy)


class ExplorationRunner:
    """Run grids of design points with memoization and optional parallelism.

    A thin client of the job layer (:mod:`repro.serve.jobs`): the
    constructor's result-affecting arguments become one
    :class:`~repro.serve.jobs.SweepConfig` (:attr:`config`), whose
    :meth:`~repro.serve.jobs.SweepConfig.key_for` keys the in-process memo
    and the persistent store alike, and
    :func:`~repro.serve.jobs.diff_points` is the store probe.  So this
    runner, ``python -m repro.explore --store``/``--server`` and the sweep
    service all read and write one set of entries.

    Parameters
    ----------
    strategy:
        Settle strategy handed to every simulation.  The default ``"auto"``
        resolves to the fastest backend (currently ``"compiled"``).
    processes:
        ``None`` (default) runs uncached points serially in-process; an
        integer > 1 submits them to a
        :class:`~repro.serve.jobs.JobManager` with that many worker
        processes.  Memoization works identically either way.
    max_cycles:
        Per-point simulation budget.
    store:
        Optional persistent result backend: a
        :class:`repro.serve.store.ResultStore` (or a directory path, which
        opens one).  Points missing from the in-process memo are probed in
        the store before any simulator is built, and freshly simulated
        results are written back — so a warm re-sweep of an unchanged grid
        performs **zero** simulations, across process restarts.  Every point
        family must be registered in :mod:`repro.serve.records`.
    """

    def __init__(self, strategy: str = AUTO, processes: Optional[int] = None,
                 max_cycles: int = 2_000_000, verify: bool = False,
                 verify_seed: int = 0, verify_cycles: int = 1500,
                 store=None) -> None:
        from ..serve.jobs import SweepConfig
        from ..serve.store import ResultStore

        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        #: The sweep identity every result is keyed, stored and evaluated
        #: under (``verify=True`` adds a constrained-random verification
        #: session per point).
        self.config = SweepConfig(strategy=strategy, max_cycles=max_cycles,
                                  verify=verify, verify_seed=verify_seed,
                                  verify_cycles=verify_cycles)
        self.config.cache_strategy()  # validate the strategy eagerly
        self.processes = processes
        if store is not None and not hasattr(store, "get"):
            store = ResultStore(store)
        #: Optional persistent result store probed before simulating and
        #: written after (see the ``store`` parameter).
        self.store = store
        self._memo: Dict[str, ExplorationResult] = {}
        #: Number of points served from the memo across all ``run`` calls.
        self.cache_hits = 0
        #: Subset of ``cache_hits`` that was served from the persistent
        #: store rather than this process's memo.
        self.store_hits = 0
        #: Number of points actually simulated across all ``run`` calls.
        self.evaluations = 0

    def run(self, points: Sequence) -> List[ExplorationResult]:
        """Evaluate every point, returning results in the points' order.

        Duplicate points and points seen in earlier ``run`` calls are
        served from the memo without re-simulation.  Raises
        :class:`RuntimeError` when a point fails in the worker pool.
        """
        from ..serve.jobs import diff_points
        from ..serve.records import result_from_record, result_to_record

        memo, config = self._memo, self.config
        keys = [config.key_for(point) for point in points]
        plan = diff_points([point for point, key in zip(points, keys)
                            if key not in memo], self.store, config)
        for key, record in plan.cached.items():
            memo[key] = result_from_record(record)
        served = len(points) - len(plan.todo)
        self.cache_hits += served
        self.store_hits += len(plan.cached)
        self.evaluations += len(plan.todo)
        _REGISTRY.inc("explore_cache_hits", served)
        _REGISTRY.inc("explore_store_hits", len(plan.cached))
        _REGISTRY.inc("explore_evaluations", len(plan.todo))
        if plan.todo and self.processes is not None and self.processes > 1:
            for record in self._run_jobs(plan.todo):
                memo[record["key"]] = result_from_record(record)
        elif plan.todo:
            record_config = config.record_config()
            for point, key in zip(plan.todo, plan.todo_keys):
                result = evaluate_point(point, strategy=config.strategy,
                                        max_cycles=config.max_cycles,
                                        verify=config.verify,
                                        verify_seed=config.verify_seed,
                                        verify_cycles=config.verify_cycles)
                memo[key] = result
                if self.store is not None:
                    self.store.put(key, result_to_record(result, key,
                                                         record_config))
        return [memo[key] for key in keys]

    def _run_jobs(self, points: Sequence) -> List[dict]:
        """Evaluate ``points`` on a fresh ``JobManager`` pool (one point
        per shard, so the workers share the grid work-stealing style);
        the manager writes the records back to the store."""
        from ..serve.jobs import JobManager

        with JobManager(store=self.store, workers=self.processes,
                        shard_size=1) as manager:
            job = manager.submit(points, self.config)
            job.wait()
            outcome = job.ordered_records()
        failures = outcome["failures"]
        if failures:
            raise RuntimeError(
                f"{len(failures)} point(s) failed in the worker pool; "
                f"first failure:\n{failures[0]['error']}")
        return outcome["records"]

    def run_search(self, budget: int, seed: int = 0,
                   designs: Sequence[str] = ("saa2vga", "blur"),
                   bindings: Optional[Sequence[str]] = None,
                   pixel_formats: Sequence[str] = ("gray8",),
                   frame_sizes: Sequence[Tuple[int, int]] = ((8, 8),
                                                             (16, 12)),
                   capacities: Sequence[int] = (4, 8, 16),
                   epsilon: float = 0.2):
        """Budgeted Pareto search over design axes, alongside grid sweeps.

        Instead of enumerating a full grid, a mutation/crossover proposer
        (under an epsilon-greedy operator bandit) spends ``budget``
        evaluations chasing the (throughput ↑, synth area ↓) frontier;
        every proposal goes through this runner's :meth:`run`, so the
        memo and the persistent store are shared with ordinary sweeps —
        repeat proposals cost zero simulations.  Returns the
        :class:`repro.search.FrontierReport` (lazy import: the search
        package sits above this one).
        """
        from ..search.driver import design_search

        return design_search(budget, seed=seed, runner=self,
                             designs=designs, bindings=bindings,
                             pixel_formats=pixel_formats,
                             frame_sizes=frame_sizes, capacities=capacities,
                             epsilon=epsilon)

"""Execution of design-space grids.

:func:`evaluate_point` builds, simulates and characterises one
:class:`~repro.explore.grid.DesignPoint`; :class:`ExplorationRunner` maps it
over a whole grid as a client of the job layer (:mod:`repro.serve.jobs`):
results are memoized under their store keys (a repeated point is never
re-simulated), and the misses go to a ``JobManager``, which probes an
optional persistent store and runs the rest in-process or on a worker
pool.  Every result carries the measured streaming throughput, the
estimated FPGA resources and a functional-verification verdict against
the golden model, so a sweep doubles as a regression net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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


def resolve_strategy(strategy: str) -> str:
    """Return ``strategy`` if it names a settle strategy, else raise
    :class:`ValueError` naming the valid choices."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
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


def evaluate_point(point, strategy: str = COMPILED,
                   max_cycles: int = 2_000_000, verify: bool = False,
                   verify_seed: int = 0,
                   verify_cycles: int = 1500) -> ExplorationResult:
    """Build, simulate, verify and characterise one design point.

    With ``verify=True`` the point is additionally run through a
    constrained-random :func:`repro.verify.session.verify` session (on a
    fresh design instance, with its own seeded stimulus) and the result
    carries the session's functional-coverage percentage and violation
    count alongside the directed-test verdict.

    Sweeps run it through :func:`repro.serve.jobs.evaluate_shard`, in
    worker processes or in-process.
    """
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
    and the persistent store alike, and every memo miss is submitted to a
    :class:`~repro.serve.jobs.JobManager`, which probes the store,
    evaluates and writes back.  So this runner, ``python -m repro.explore
    --store``/``--server`` and the sweep service all read and write one
    set of entries.

    Parameters
    ----------
    strategy:
        Settle strategy handed to every simulation (default
        ``"compiled"``).
    processes:
        Worker processes of the ``JobManager``: ``0`` (default) evaluates
        uncached points in-process, ``N`` on a pool of ``N`` workers.
        Results, store entries and memoization are identical either way.
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

    def __init__(self, strategy: str = COMPILED, processes: int = 0,
                 max_cycles: int = 2_000_000, verify: bool = False,
                 verify_seed: int = 0, verify_cycles: int = 1500,
                 store=None) -> None:
        from ..serve.jobs import SweepConfig
        from ..serve.store import ResultStore

        if processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        #: The sweep identity every result is keyed, stored and evaluated
        #: under (``verify=True`` adds a constrained-random verification
        #: session per point).
        self.config = SweepConfig(strategy=strategy, max_cycles=max_cycles,
                                  verify=verify, verify_seed=verify_seed,
                                  verify_cycles=verify_cycles)
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
        served from the memo without re-simulation; the rest are one
        :class:`~repro.serve.jobs.JobManager` job.  Raises
        :class:`RuntimeError` carrying the first failure's traceback.
        """
        from ..serve.jobs import JobManager
        from ..serve.records import result_from_record

        memo = self._memo
        keys = [self.config.key_for(point) for point in points]
        misses = [point for point, key in zip(points, keys) if key not in memo]
        cached = simulated = 0
        if misses:
            with JobManager(store=self.store,
                            workers=self.processes) as manager:
                job = manager.submit(misses, self.config)
                job.wait()
            outcome = job.ordered_records()
            failures = outcome["failures"]
            if failures:
                raise RuntimeError(
                    f"{len(failures)} point(s) failed; first failure:\n"
                    f"{failures[0]['error']}")
            for record in outcome["records"]:
                memo[record["key"]] = result_from_record(record)
            progress = job.progress()
            cached, simulated = progress["cached"], progress["simulated"]
        served = len(points) - simulated
        self.cache_hits += served
        self.store_hits += cached
        self.evaluations += simulated
        _REGISTRY.inc("explore_cache_hits", served)
        _REGISTRY.inc("explore_store_hits", cached)
        _REGISTRY.inc("explore_evaluations", simulated)
        return [memo[key] for key in keys]

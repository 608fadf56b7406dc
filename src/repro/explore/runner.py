"""Execution of design-space grids.

:func:`evaluate_point` builds, simulates and characterises one
:class:`~repro.explore.grid.DesignPoint`; :class:`ExplorationRunner` maps it
over a whole grid, memoizing results by design hash (a repeated point is
never re-simulated) and optionally fanning the uncached points out over a
``multiprocessing`` pool.  Every result carries the measured streaming
throughput, the estimated FPGA resources and a functional-verification
verdict against the golden model, so a sweep doubles as a regression net.
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

    A module-level function so a ``multiprocessing`` pool can pickle it.
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

    Parameters
    ----------
    strategy:
        Settle strategy handed to every simulation.  The default ``"auto"``
        resolves to the fastest backend (currently ``"compiled"``).
    processes:
        ``None`` (default) runs points serially in-process; an integer > 1
        fans uncached points out over a ``multiprocessing.Pool`` of that
        size.  Memoization works identically either way — results are cached
        in the parent by design hash.
    max_cycles:
        Per-point simulation budget.
    store:
        Optional persistent result backend: a
        :class:`repro.serve.store.ResultStore` (or a directory path, which
        opens one).  Points missing from the in-process memo are probed in
        the store before any simulator is built, and freshly simulated
        results are written back — so a warm re-sweep of an unchanged grid
        performs **zero** simulations, across process restarts.  Point
        types without a registered record family degrade gracefully to
        in-process memoization only.
    """

    def __init__(self, strategy: str = AUTO, processes: Optional[int] = None,
                 max_cycles: int = 2_000_000, verify: bool = False,
                 verify_seed: int = 0, verify_cycles: int = 1500,
                 store=None) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        resolve_strategy(strategy)  # validate eagerly
        self.strategy = strategy
        self.processes = processes
        self.max_cycles = max_cycles
        #: When True, every evaluated point also runs a constrained-random
        #: verification session and reports functional coverage.
        self.verify = verify
        self.verify_seed = verify_seed
        self.verify_cycles = verify_cycles
        if store is not None and not hasattr(store, "get"):
            # A path was handed in; open a store over it (lazy import so the
            # serve package stays optional for plain in-process sweeps).
            from ..serve.store import ResultStore

            store = ResultStore(store)
        #: Optional persistent result store probed before simulating and
        #: written after (see the ``store`` parameter).
        self.store = store
        self._cache: Dict[Tuple, ExplorationResult] = {}
        #: Number of points served from the memo across all ``run`` calls.
        self.cache_hits = 0
        #: Subset of ``cache_hits`` that was served from the persistent
        #: store rather than this process's memo.
        self.store_hits = 0
        #: Number of points actually simulated across all ``run`` calls.
        self.evaluations = 0

    def _memo_key(self, point) -> Tuple:
        """Memoization key: the design point *and* the resolved strategy.

        Results from different settle strategies must never cross-contaminate
        the cache — they are supposed to be identical, but the cache is one
        of the places that claim gets checked, not assumed.  The
        verification configuration is part of the key too: a result carrying
        coverage must never be served for a ``verify=False`` sweep (or for a
        different seed), and vice versa.
        """
        return (point.key(), self.cache_strategy(),
                self.verify, self.verify_seed, self.verify_cycles)

    def cache_strategy(self) -> str:
        """The strategy as memo and store keys name it (``"auto"``
        resolved), so ``auto`` and ``compiled`` share entries."""
        return resolve_strategy(self.strategy)

    def _store_get(self, point) -> Optional[ExplorationResult]:
        """Probe the persistent store for a point; ``None`` on any miss."""
        from ..serve import records

        try:
            key = records.exploration_key(
                point, self.cache_strategy(), self.verify,
                self.verify_seed, self.verify_cycles)
        except records.UnstorablePointError:
            return None
        record = self.store.get(key)
        if not records.record_matches(record, "exploration"):
            return None
        try:
            return records.result_from_record(record)
        except (KeyError, TypeError, ValueError):
            return None  # malformed payload: treat as a miss, re-simulate

    def _store_put(self, point, result: ExplorationResult) -> None:
        from ..serve import records

        try:
            config = records.exploration_config(
                self.cache_strategy(), self.verify, self.verify_seed,
                self.verify_cycles)
            key = records.exploration_key(
                point, self.cache_strategy(), self.verify,
                self.verify_seed, self.verify_cycles)
        except records.UnstorablePointError:
            return
        self.store.put(key, records.result_to_record(result, key, config))

    def run(self, points: Sequence) -> List[ExplorationResult]:
        """Evaluate every point, returning results in the points' order.

        Duplicate points (by design hash) and points seen in earlier ``run``
        calls are served from the memo without re-simulation.
        """
        cache = self._cache
        todo = []
        seen = set()
        for point in points:
            key = self._memo_key(point)
            if key not in cache and key not in seen:
                seen.add(key)
                todo.append(point)
        if self.store is not None and todo:
            remaining = []
            for point in todo:
                result = self._store_get(point)
                if result is None:
                    remaining.append(point)
                else:
                    cache[self._memo_key(point)] = result
                    self.store_hits += 1
                    _REGISTRY.inc("explore_store_hits")
            todo = remaining
        self.cache_hits += len(points) - len(todo)
        self.evaluations += len(todo)
        _REGISTRY.inc("explore_cache_hits", len(points) - len(todo))
        _REGISTRY.inc("explore_evaluations", len(todo))
        if todo:
            if self.processes is not None and self.processes > 1:
                fresh = self._run_pool(todo)
            else:
                fresh = [evaluate_point(point, strategy=self.strategy,
                                        max_cycles=self.max_cycles,
                                        verify=self.verify,
                                        verify_seed=self.verify_seed,
                                        verify_cycles=self.verify_cycles)
                         for point in todo]
            for point, result in zip(todo, fresh):
                cache[self._memo_key(point)] = result
                if self.store is not None:
                    self._store_put(point, result)
        return [cache[self._memo_key(point)] for point in points]

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

    def _run_pool(self, points: Sequence) -> List[ExplorationResult]:
        import multiprocessing

        with multiprocessing.Pool(self.processes) as pool:
            return pool.starmap(
                evaluate_point,
                [(point, self.strategy, self.max_cycles, self.verify,
                  self.verify_seed, self.verify_cycles) for point in points])

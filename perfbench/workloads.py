"""The three benchmark workloads: ``stream``, ``sweep`` and ``verify``.

Each workload drives the repository through the same public entry points
its users call.  :meth:`setup` makes the inputs from the workload seed
(and, for ``sweep``, the temp store and the ``JobManager`` pool); the
harness times it as set-up.  :meth:`run` is one timed repetition.  Both
return plain dicts, because a repetition runs in a forked child and its
measurements travel back to the harness through a pipe.

A repetition reports:

* ``work`` -- work items (stream: frames; sweep: cold grid points;
  verify: verify sessions) and ``cycles``, the cycles they simulated;
* ``work_ops`` -- the names of the timed operations the work consists
  of, the same in every repetition (their times are in the clock);
* ``request_ops`` -- the operations that are one repeated user call
  (stream: one frame; sweep: one warm re-submission; verify: one
  ``verify()`` call);
* ``checks`` -- ``(description, passed)`` output checks;
* ``modelled`` -- every modelled statistic, for the digest;
* ``named`` -- the workload's own figures, printed by name;
* ``layer`` -- per-layer counts read from public reports.
"""

from __future__ import annotations

import inspect
import random
import shutil
import tempfile
from typing import Dict

from repro.designs import (
    VideoSystem,
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_saa2vga_pattern,
    run_stream_through,
)
from repro.explore.grid import expand_grid
from repro.explore.runner import (
    ExplorationResult,
    build_design,
    golden_output,
    resolve_strategy,
    stimulus_frame,
)
from repro.rtl import Simulator
from repro.search.driver import CoverageSearch, SearchConfig
from repro.search.state import SessionEvaluator
from repro.serve.__main__ import build_parser as serve_parser
from repro.serve.jobs import JobManager, SweepConfig
from repro.serve.records import result_to_record
from repro.serve.store import ResultStore
from repro.synth import estimate_design, estimate_power_mw
from repro.verify.__main__ import build_parser as verify_parser
from repro.verify.coverage import CoverageDB
from repro.verify.session import (
    TARGETS,
    container_targets,
    metagen_targets,
    verify,
)
from repro.video import flatten, golden_blur3x3, random_frame

from hostspeed import OpClock
from spans import Tracer, percentile

#: Modules a fresh ``python -m repro.*`` process imports before its first
#: call; the harness times importing them as part of set-up.
IMPORTS = ("repro.designs", "repro.explore", "repro.serve.jobs",
           "repro.search.driver", "repro.synth", "repro.verify.session")


def _default(func, name: str):
    """A parameter default read at run time, so default flips show up."""
    return inspect.signature(func).parameters[name].default


def resolved_strategies() -> Dict[str, str]:
    """The settle strategy each entry point resolves to by default."""
    sweep = SweepConfig().strategy
    return {
        "run_stream_through": _default(run_stream_through, "strategy"),
        "SweepConfig": f"{sweep} -> {resolve_strategy(sweep)}",
        "repro.verify CLI": verify_parser().get_default("strategy"),
        "SearchConfig": SearchConfig.__dataclass_fields__["strategy"].default,
    }


def _sim_reports(sims) -> Dict[str, int]:
    """Degraded-mode counts of finished simulators (compiled ones only
    carry a compile report)."""
    reports = [sim.compile_report for sim in sims
               if getattr(sim, "compile_report", None) is not None]
    return {
        "analysis_misses": sum(sim.analysis_misses for sim in sims),
        "opaque_procs": sum(report.n_opaque_procs for report in reports),
        "guarded": sum(1 for report in reports if report.guarded),
    }


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

#: Every stream frame is 16x12 gray8 pixels.
FRAME_W, FRAME_H = 16, 12

#: (name, factory, frames per repetition).  Frame counts balance host
#: time: under the event strategy each design takes 15-40% of a
#: repetition.  The sram binding moves about 0.08 pixels per cycle.
STREAM_DESIGNS = (
    ("saa2vga_fifo", lambda: build_saa2vga_pattern("fifo"), 64),
    ("saa2vga_sram", lambda: build_saa2vga_pattern("sram"), 8),
    ("blur", lambda: build_blur_pattern(FRAME_W), 16),
    ("dualpath", build_dual_path_saa2vga, 16),
)


class Stream:
    """Long streaming runs of four designs under the default strategy."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict:
        frames = {}
        for index, (name, _, count) in enumerate(STREAM_DESIGNS):
            base = self.seed * 1000 + index * 100
            frames[name] = [random_frame(FRAME_W, FRAME_H, seed=base + k)
                            for k in range(count)]
        return {"frames": frames}

    def run(self, state: dict, tracer: Tracer, clock: OpClock) -> dict:
        strategy = _default(run_stream_through, "strategy")
        max_cycles = _default(run_stream_through, "max_cycles")
        work_ops, frame_ops, checks, sims = [], [], [], []
        modelled, kernel = {}, {}
        frames_done = cycles = 0
        for name, factory, _ in STREAM_DESIGNS:
            frames = state["frames"][name]
            if name == "blur":
                per_frame = [(k * FRAME_H - 2) * (FRAME_W - 2)
                             for k in range(1, len(frames) + 1)]
            else:
                per_frame = [k * FRAME_W * FRAME_H
                             for k in range(1, len(frames) + 1)]
            work_ops.append(f"{name}/construct")
            with clock.op(work_ops[-1]):
                with tracer.span("designs.build", design=name):
                    design = factory()
                with tracer.span("rtl.compile.ctor", design=name):
                    system = VideoSystem(design, frames=frames)
                    sim = Simulator(system, strategy=strategy)
            sink = system.sink
            boundaries = []
            for index, target in enumerate(per_frame):
                op = f"{name}/frame{index}"
                with clock.op(op), tracer.span("rtl.kernel", design=name):
                    sim.run_until(lambda: sink.count >= target, max_cycles)
                frame_ops.append(op)
                boundaries.append(sim.cycles)
            pixels = system.received_pixels()
            if name == "blur":
                golden = flatten(golden_blur3x3(frames[0]))
                ok = (pixels[:len(golden)] == golden
                      and len(pixels) == per_frame[-1])
                checks.append((f"{name}: first frame equals golden_blur3x3",
                               ok))
            else:
                ok = pixels == [p for frame in frames for p in flatten(frame)]
                checks.append((f"{name}: every frame copied exactly", ok))
            modelled[name] = boundaries
            kernel[name] = sim.cycles
            frames_done += len(frames)
            cycles += sim.cycles
            sims.append(sim)
        return {
            "work": frames_done, "cycles": cycles,
            "work_ops": work_ops + frame_ops, "request_ops": frame_ops,
            "checks": checks, "modelled": modelled, "named": {},
            "layer": {"kernel_cycles": kernel, **_sim_reports(sims)},
        }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: The mixed 27-point grid: saa2vga {fifo, sram} + blur, gray8.
SWEEP_AXES = {
    "designs": ("saa2vga", "blur"),
    "pixel_formats": ("gray8",),
    "frame_sizes": ((16, 12), (32, 24), (48, 36)),
    "capacities": (8, 16, 32),
}

#: Warm re-submissions of the whole grid per repetition.
WARM_RESUBMISSIONS = 100

#: Seconds one submission may take before the repetition gives up.
JOB_TIMEOUT_S = 30.0


class Sweep:
    """A cold then warm ``JobManager`` sweep over the mixed grid.

    The pool's workers fork from the set-up process, which has imported
    ``repro`` and expanded the grid but never built, compiled or
    simulated a design: every repetition's workers start with empty
    compile caches.  The traced repetition instead evaluates the same
    points in-process, through the calls ``evaluate_point`` makes.
    """

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self, pool: bool = True) -> dict:
        points = expand_grid(**SWEEP_AXES)
        defaults = serve_parser()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        store = ResultStore(store_dir)
        state = {"points": points, "store": store, "store_dir": store_dir,
                 "workers": defaults.get_default("workers")}
        if pool:
            state["manager"] = JobManager(
                store=store, workers=defaults.get_default("workers"),
                shard_size=defaults.get_default("shard_size"),
                shard_timeout=defaults.get_default("shard_timeout"),
                max_retries=defaults.get_default("max_retries"))
        return state

    def run(self, state: dict, tracer: Tracer, clock: OpClock) -> dict:
        try:
            if "manager" in state:
                return self._pool(state, clock)
            return self._in_process(state, tracer)
        finally:
            if "manager" in state:
                state["manager"].close()
            shutil.rmtree(state["store_dir"], ignore_errors=True)

    def _pool(self, state: dict, clock: OpClock) -> dict:
        points, manager = state["points"], state["manager"]
        config = SweepConfig()
        with clock.op("cold sweep", pool=True):
            job = manager.submit(points, config)
            finished = job.wait(JOB_TIMEOUT_S)
        progress = job.progress()
        outcome = job.ordered_records()
        records = {record["key"]: record for record in outcome["records"]}
        checks = [("cold sweep finished", finished
                   and progress["state"] == "done"),
                  ("cold sweep has no failed points", not outcome["failures"])]
        checks += [(f"{record['point']} verified",
                    record["result"]["verified"] is True)
                   for record in outcome["records"]]
        rng = random.Random(self.seed)
        warm_ops = []
        for index in range(WARM_RESUBMISSIONS):
            order = list(points)
            rng.shuffle(order)
            warm_ops.append(f"warm{index}")
            with clock.op(warm_ops[-1]):
                warm = manager.submit(order, config)
                warm.wait(JOB_TIMEOUT_S)
                served = warm.ordered_records()["records"]
            warm_progress = warm.progress()
            checks.append(("warm re-submission served from the store",
                           warm_progress["cached"] == len(points)
                           and warm_progress["simulated"] == 0
                           and {r["key"]: r for r in served} == records))
        cycles = sum(r["result"]["cycles"] for r in records.values())
        timing = progress["timing"]
        warm_s = sum(clock.ops[op] for op in warm_ops)
        return {
            "work": len(points), "cycles": cycles,
            "work_ops": ["cold sweep"], "request_ops": warm_ops,
            "pool_ops": ["cold sweep"],
            "checks": checks,
            "modelled": _sweep_modelled(outcome["records"]),
            "records": records,
            "named": {
                "cold_points_per_s": len(points) / clock.ops["cold sweep"],
                "warm_points_per_s": len(points) * len(warm_ops) / warm_s,
            },
            "layer": {
                "jobs": {
                    "elapsed_s": timing["elapsed_s"],
                    "shards": timing["shards"]["count"],
                    "shard_s": timing["shards"]["total_s"],
                    "shard_max_s": timing["shards"]["max_s"],
                    "requeues": manager.requeues,
                    "failed": progress["failed"],
                    "workers": state["workers"],
                },
                "store": state["store"].stats(),
            },
        }

    def _in_process(self, state: dict, tracer: Tracer) -> dict:
        """The traced decomposition: ``evaluate_point``'s calls, one span
        around each, plus a put and a get of every record."""
        config = SweepConfig()
        strategy = resolve_strategy(config.strategy)
        record_config = config.record_config()
        store = state["store"]
        records, sims = {}, []
        for point in state["points"]:
            label = point.label()
            with tracer.span("explore.point", design=label):
                with tracer.span("video.stimulus", design=label):
                    frame = stimulus_frame(point)
                    golden = golden_output(point, frame)
                with tracer.span("designs.build", design=label):
                    design = build_design(point)
                with tracer.span("rtl.compile.ctor", design=label):
                    system = VideoSystem(design, frames=[frame])
                    sim = Simulator(system, strategy=strategy)
                sink, expected = system.sink, len(golden)
                with tracer.span("rtl.kernel", design=label):
                    sim.run_until(lambda: sink.count >= expected,
                                  config.max_cycles)
                pixels = system.received_pixels()
                with tracer.span("synth.estimate", design=label):
                    area = estimate_design(design)
                    power = estimate_power_mw(area)
                result = ExplorationResult(
                    point=point, cycles=sim.cycles, outputs=len(pixels),
                    throughput=len(pixels) / max(1, sim.cycles),
                    ffs=area.total.ffs, luts=area.total.total_luts,
                    brams=area.total.brams, fmax_mhz=area.fmax_mhz,
                    power_mw=power, verified=pixels == golden)
                key = config.key_for(point)
                record = result_to_record(result, key, record_config)
                with tracer.span("serve.store.put", design=label):
                    store.put(key, record)
                with tracer.span("serve.store.get", design=label):
                    records[key] = store.get(key)
            sims.append(sim)
        checks = [(f"{r['point']} verified in-process",
                   r["result"]["verified"] is True) for r in records.values()]
        return {
            "work": len(records),
            "cycles": sum(r["result"]["cycles"] for r in records.values()),
            "work_ops": [], "request_ops": [], "checks": checks,
            "modelled": _sweep_modelled(records.values()),
            "records": records, "named": {},
            "layer": {"store": store.stats(), **_sim_reports(sims)},
        }


def _sweep_modelled(records) -> dict:
    fields = ("cycles", "ffs", "luts", "brams", "fmax_mhz")
    return {record["key"]: [record["result"][f] for f in fields]
            for record in records}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: Stimulus seeds per target, derived from the workload seed.
VERIFY_SEEDS = 4

#: The search's cycle budget per session.
SEARCH_CYCLES = 120

#: Search sessions allowed per target.  ``SearchConfig``'s default budget
#: (32) cannot close 17 targets; closure takes about 41 sessions.
SEARCH_BUDGET_PER_TARGET = 8


class _TimedEvaluator(SessionEvaluator):
    """``SessionEvaluator`` with a span around every ``evaluate`` call,
    handed to ``CoverageSearch`` through its ``evaluator=`` hook."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def evaluate(self, target, seeds):
        with self.tracer.span("search.evaluate", design=target):
            return super().evaluate(target, seeds)


class Verify:
    """The verify CLI's seed matrix over every target, then one search."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict:
        search_targets = tuple(container_targets() + metagen_targets())
        return {
            "targets": list(TARGETS),
            "seeds": [VERIFY_SEEDS * self.seed + i
                      for i in range(VERIFY_SEEDS)],
            "search": SearchConfig(
                targets=search_targets, cycles=SEARCH_CYCLES, seed=self.seed,
                budget=SEARCH_BUDGET_PER_TARGET * len(search_targets)),
        }

    def run(self, state: dict, tracer: Tracer, clock: OpClock) -> dict:
        strategy = verify_parser().get_default("strategy")
        db = CoverageDB()
        session_ops, checks, modelled = [], [], []
        cycles = transactions = violations = 0
        for name in state["targets"]:
            for seed in state["seeds"]:
                session_ops.append(f"{name}/seed{seed}")
                with clock.op(session_ops[-1]), \
                        tracer.span("verify.session", design=name):
                    result = verify(name, seed=seed, strategy=strategy)
                db.add(result.coverage)
                checks.append((f"{name} seed {seed} has no violations",
                               result.ok))
                modelled.append([name, seed, result.coverage_percent])
                cycles += result.cycles
                transactions += result.transactions
                violations += len(result.violations)
        sessions_s = sum(clock.ops[op] for op in session_ops)
        latencies = [clock.ops[op] * 1e3 for op in session_ops]
        config = state["search"]
        evaluator = _TimedEvaluator(tracer, cycles=config.cycles,
                                    strategy=config.strategy)
        with clock.op("search"):
            report = CoverageSearch(config, evaluator=evaluator).run()
        search_s = clock.ops["search"]
        checks.append(("search reports closed", report.closed))
        proposals = [p for entry in report.rounds for p in entry["proposals"]]
        return {
            "work": len(session_ops), "cycles": cycles,
            "work_ops": session_ops, "request_ops": session_ops,
            "checks": checks, "modelled": modelled,
            "named": {
                "sessions_per_s": len(session_ops) / sessions_s,
                "session_p50_ms": percentile(latencies, 50),
                "session_p85_ms": percentile(latencies, 85),
                "search_s": search_s,
                "search_sessions": report.sessions,
            },
            "layer": {
                "verify": {"sessions": len(session_ops), "cycles": cycles,
                           "transactions": transactions,
                           "violations": violations,
                           "coverage_pct": db.percent()},
                "search": {"wall_s": search_s, "sessions": report.sessions,
                           "rounds": len(report.rounds),
                           "simulated": report.simulated,
                           "memo_hits": report.memo_hits,
                           "proposals": len(proposals),
                           "accepted": sum(1 for p in proposals
                                           if p["gain"])},
            },
        }

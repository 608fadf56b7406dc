"""Async sweep jobs: shard, farm out, retry, persist.

The job model turns a grid of points into durable results:

1. **Diff** — :func:`diff_points` probes the :class:`ResultStore` for every
   point's key; hits become results immediately (the incremental re-sweep:
   only absent or invalidated points are ever scheduled).
2. **Shard** — the missing points are split into contiguous shards
   (:func:`split_shards`).  A shard is the unit of dispatch, retry and
   timeout; a worker evaluates its shard's points one after another.
3. **Farm** — a pool of worker *processes* pulls shards work-stealing
   style: the manager assigns the next pending shard to whichever worker
   becomes idle first, so a slow shard never blocks its siblings.  Each
   worker talks to the manager over its own private pipe — a killed or
   crashed worker can corrupt nothing shared.
4. **Survive** — a worker that dies mid-shard (crash, OOM-kill, operator
   ``SIGKILL``) or exceeds the per-shard timeout gets its shard re-queued
   and a fresh worker spawned, up to ``max_retries`` re-dispatches; an
   exhausted shard records a *failed* entry per point and the sweep still
   completes — sibling shards are never poisoned.  Results are
   deterministic functions of the point, so a retried shard reproduces
   exactly what the first attempt would have returned.

Job states progress ``submitted → sharded → running → done|failed``
(``failed`` meaning "completed with at least one failed point").  Every
transition and shard event is appended to the job's event log, which the
HTTP layer streams as NDJSON.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import distributed as _distributed
from ..obs import tracing as _obs_tracing
from ..obs.metrics import REGISTRY as _REGISTRY
from .records import (
    exploration_config,
    exploration_key,
    point_from_dict,
    point_to_dict,
    record_matches,
    result_to_record,
)
from .store import ResultStore

#: Job lifecycle states.
SUBMITTED = "submitted"
SHARDED = "sharded"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_TERMINAL = (DONE, FAILED)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a worker needs to evaluate a point identically anywhere.

    The one result identity of exploration sweeps: an
    :class:`~repro.explore.runner.ExplorationRunner` builds one from its
    constructor arguments, and :meth:`key_for` (with ``"auto"`` resolved
    by :meth:`cache_strategy`) keys the runner's memo, the CLI ``--store``
    mode and the service alike, so they all hit the same store entries.
    """

    strategy: str = "auto"
    max_cycles: int = 2_000_000
    verify: bool = False
    verify_seed: int = 0
    verify_cycles: int = 1500
    #: Capture a merged distributed trace for this sweep.  Off by default
    #: so untraced jobs never enable worker-side tracing (the zero-overhead
    #: contract extends across the pool).  Deliberately *not* part of the
    #: cache key: tracing observes a sweep, it does not change its results.
    trace: bool = False

    def cache_strategy(self) -> str:
        from ..explore.runner import resolve_strategy

        return resolve_strategy(self.strategy)

    def key_for(self, point) -> str:
        """The store key this config assigns to ``point``."""
        return exploration_key(point, self.cache_strategy(), self.verify,
                               self.verify_seed, self.verify_cycles)

    def record_config(self) -> Dict[str, object]:
        return exploration_config(self.cache_strategy(), self.verify,
                                  self.verify_seed, self.verify_cycles)

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "max_cycles": self.max_cycles,
            "verify": self.verify,
            "verify_seed": self.verify_seed,
            "verify_cycles": self.verify_cycles,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepConfig":
        known = {name: data[name] for name in cls.__dataclass_fields__
                 if name in data}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        return cls(**known)


@dataclass
class SweepPlan:
    """Outcome of diffing a grid against the store (incremental re-sweep)."""

    #: Store key per submitted point, in submission order.
    keys: List[str]
    #: Key → record for every point already present in the store.
    cached: Dict[str, dict]
    #: Unique points that must be simulated, in first-seen order.
    todo: List[object] = field(default_factory=list)
    #: Keys parallel to :attr:`todo`.
    todo_keys: List[str] = field(default_factory=list)


def diff_points(points: Sequence, store: Optional[ResultStore],
                config: SweepConfig) -> SweepPlan:
    """Split a grid into cache-served and must-simulate point sets.

    Duplicate points collapse onto one key.  With ``store=None`` every
    unique point lands in ``todo`` (a pure sharding plan).  A stored
    record of another kind counts as absent.
    """
    plan = SweepPlan(keys=[], cached={})
    seen = set()
    for point in points:
        key = config.key_for(point)
        plan.keys.append(key)
        if key in seen:
            continue
        seen.add(key)
        record = store.get(key) if store is not None else None
        if record_matches(record, "exploration"):
            plan.cached[key] = record
        else:
            plan.todo.append(point)
            plan.todo_keys.append(key)
    return plan


def split_shards(points: Sequence, shard_size: int) -> List[List]:
    """Contiguous shards of at most ``shard_size`` points, order-preserving."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    points = list(points)
    return [points[start:start + shard_size]
            for start in range(0, len(points), shard_size)]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def evaluate_shard(point_dicts: Sequence[dict],
                   config_dict: Dict[str, object]
                   ) -> List[Tuple[str, dict]]:
    """Evaluate one shard; returns ``[(key, record), ...]`` per point.

    Module-level and dict-in/dict-out so it runs identically in a worker
    process, in-process (tests, the no-worker fallback) and across Python
    versions: records, not live objects, cross the process boundary.
    """
    from ..explore.runner import evaluate_point

    config = SweepConfig.from_dict(dict(config_dict))
    points = [point_from_dict(data) for data in point_dicts]
    results = [evaluate_point(point, strategy=config.strategy,
                              max_cycles=config.max_cycles,
                              verify=config.verify,
                              verify_seed=config.verify_seed,
                              verify_cycles=config.verify_cycles)
               for point in points]
    record_config = config.record_config()
    out = []
    for point, result in zip(points, results):
        key = config.key_for(point)
        out.append((key, result_to_record(result, key, record_config)))
    return out


def _worker_main(conn, worker_id: int) -> None:
    """Worker loop: receive a shard, evaluate, reply; ``None`` exits.

    Each worker owns one end of a private duplex pipe — no shared queues,
    so an abrupt death (the fault the manager must survive) cannot leave a
    lock or a half-written buffer behind for the survivors.

    Telemetry rides the same pipe: every reply is a 5-tuple whose last
    element is the worker's telemetry payload — always the counter deltas
    since its previous reply (what makes ``GET /metrics`` pool-wide), and
    additionally the shard's span buffer when the dispatch carried a
    trace context.  A killed worker ships nothing, which is exactly how
    a lost shard's telemetry stays lost instead of corrupted.
    """
    # Under the fork start method this process begins life with the
    # parent's metric counters, tracing ring buffer and profiler state —
    # scrub all of it before the first shard or pool-wide aggregation
    # would double-count everything the manager already recorded.
    _distributed.reset_worker_telemetry()
    # A worker forked after ``python -m repro.serve`` routed SIGTERM to
    # KeyboardInterrupt inherits that handler; terminate() must kill it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        job_id, shard_id, point_dicts, config_dict, context_dict = task
        capture = _distributed.ShardCapture.begin(context_dict)
        try:
            records = evaluate_shard(point_dicts, config_dict)
            conn.send(("done", job_id, shard_id, records, capture.finish()))
        except Exception:
            try:
                conn.send(("error", job_id, shard_id,
                           traceback.format_exc(limit=20), capture.finish()))
            except (OSError, ValueError):
                return


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class SweepJob:
    """One submitted sweep: bookkeeping, results and the event log.

    All mutation happens under the owning manager's lock; readers go
    through the snapshot methods (:meth:`progress`, :meth:`events_since`,
    :meth:`ordered_records`) which take the same lock.
    """

    def __init__(self, job_id: str, plan: SweepPlan, config: SweepConfig,
                 lock: threading.RLock) -> None:
        self.id = job_id
        self.config = config
        self.keys = list(plan.keys)
        self.state = SUBMITTED
        self.results: Dict[str, dict] = dict(plan.cached)
        self.failures: Dict[str, dict] = {}
        self.cached_keys = frozenset(plan.cached)
        self.unique_keys: List[str] = []
        seen = set()
        for key in self.keys:
            if key not in seen:
                seen.add(key)
                self.unique_keys.append(key)
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        #: Wall seconds per completed shard attempt (dispatch -> reply),
        #: feeding the ``timing`` block of :meth:`progress`.
        self.shard_seconds: List[float] = []
        self.events: List[dict] = []
        #: Merged sweep-wide trace (``config.trace`` jobs only).
        self.trace: Optional[_distributed.JobTrace] = \
            _distributed.JobTrace(job_id) if config.trace else None
        self._lock = lock
        self._terminal = threading.Event()

    # -- event log ---------------------------------------------------------

    def emit(self, event: str, **data) -> None:
        entry = {"seq": len(self.events), "event": event,
                 "time": time.time(), **data}
        self.events.append(entry)

    def events_since(self, index: int) -> List[dict]:
        with self._lock:
            return list(self.events[index:])

    # -- status ------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    def progress(self) -> Dict[str, object]:
        """The status payload ``GET /sweeps/<id>`` serves."""
        with self._lock:
            total = len(self.unique_keys)
            cached = len(self.cached_keys)
            simulated = len(self.results) - cached
            failed = len(self.failures)
            return {
                "id": self.id,
                "state": self.state,
                "points": len(self.keys),
                "total": total,
                "cached": cached,
                "simulated": simulated,
                "failed": failed,
                "pending": total - cached - simulated - failed,
                "events": len(self.events),
                "created_at": self.created_at,
                "finished_at": self.finished_at,
                "timing": self._timing(),
                "config": self.config.to_dict(),
                "telemetry": self._telemetry(),
            }

    def _telemetry(self) -> Dict[str, object]:
        """Distributed-telemetry status for the progress payload."""
        if self.trace is None:
            return {"traced": False}
        return {
            "traced": True,
            "spans": len(self.trace),
            "dropped_spans": self.trace.dropped,
            "worker_pids": sorted(self.trace.worker_pids),
            "lost_shards": self.trace.lost_shards,
        }

    def _timing(self) -> Dict[str, object]:
        """Wall-clock stats: job elapsed plus per-shard duration spread."""
        shards = self.shard_seconds
        end = self.finished_at if self.finished_at is not None else time.time()
        return {
            "elapsed_s": round(end - self.created_at, 6),
            "shards": {
                "count": len(shards),
                "total_s": round(sum(shards), 6),
                "mean_s": round(sum(shards) / len(shards), 6) if shards else 0.0,
                "max_s": round(max(shards), 6) if shards else 0.0,
            },
        }

    def ordered_records(self) -> Dict[str, List[dict]]:
        """Records and failures in first-submission point order."""
        with self._lock:
            records = [self.results[key] for key in self.unique_keys
                       if key in self.results]
            failures = [self.failures[key] for key in self.unique_keys
                        if key in self.failures]
            return {"records": records, "failures": failures}

    def trace_records(self) -> Optional[List[dict]]:
        """The merged trace in raw-record form, or ``None`` if untraced.

        Safe to call while the job is still running — the export is a
        snapshot (the root ``sweep`` span only appears once the job
        reaches a terminal state).
        """
        with self._lock:
            if self.trace is None:
                return None
            return self.trace.export_records()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches ``done``/``failed``."""
        return self._terminal.wait(timeout)


class SearchJob:
    """One coverage-directed search job (``POST /search``).

    Duck-types the :class:`SweepJob` surface the HTTP layer reads —
    ``progress()``, ``events_since()``, ``ordered_records()``, ``wait()``,
    ``done``, ``state``, ``trace_records()`` — so search jobs register in
    the same manager table and stream through the existing
    ``/sweeps/<id>/events?follow=1`` protocol unchanged.  The search
    itself is feedback-driven and sequential, so it runs on one manager-
    side thread; the manager's store backs its session memo, making
    repeat proposals free across jobs and processes.
    """

    def __init__(self, job_id: str, config, frontier_spec: Optional[dict],
                 store: Optional[ResultStore],
                 lock: threading.RLock) -> None:
        self.id = job_id
        self.config = config
        self.frontier_spec = frontier_spec
        self.store = store
        self.state = SUBMITTED
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.events: List[dict] = []
        #: Final ``repro-search-v1`` report dict (set at completion).
        self.report: Optional[dict] = None
        #: Final ``repro-frontier-v1`` dict (set when a frontier ran).
        self.frontier: Optional[dict] = None
        self.error: Optional[str] = None
        self._sessions = 0
        self._coverage: Dict[str, float] = {}
        self._frontier_size = 0
        self._lock = lock
        self._terminal = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"search-job-{job_id}")

    def start(self) -> "SearchJob":
        self._thread.start()
        return self

    # -- the SweepJob surface ----------------------------------------------

    def emit(self, event: str, **data) -> None:
        entry = {"seq": len(self.events), "event": event,
                 "time": time.time(), **data}
        self.events.append(entry)

    def events_since(self, index: int) -> List[dict]:
        with self._lock:
            return list(self.events[index:])

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    def progress(self) -> Dict[str, object]:
        with self._lock:
            return {
                "id": self.id,
                "kind": "search",
                "state": self.state,
                "targets": (list(self.config.targets)
                            if self.config is not None else []),
                "budget": (self.config.budget
                           if self.config is not None else 0),
                "sessions": self._sessions,
                "coverage": {t: round(pct, 4)
                             for t, pct in self._coverage.items()},
                "frontier_size": self._frontier_size,
                "events": len(self.events),
                "error": self.error,
                "created_at": self.created_at,
                "finished_at": self.finished_at,
            }

    def ordered_records(self) -> Dict[str, object]:
        """The results payload: final report + frontier artifacts."""
        with self._lock:
            return {
                "records": [],
                "failures": ([{"error": self.error}] if self.error else []),
                "report": self.report,
                "frontier": self.frontier,
            }

    def trace_records(self) -> Optional[List[dict]]:
        return None  # search jobs are untraced; the route 404s

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._terminal.wait(timeout)

    # -- execution ---------------------------------------------------------

    def _on_round(self, entry: dict) -> None:
        with self._lock:
            self._sessions = entry.get("sessions", self._sessions)
            if "target" in entry:
                self._coverage[entry["target"]] = entry.get("coverage", 0.0)
            self.emit("search_round", **entry)

    def _on_frontier_round(self, entry: dict) -> None:
        with self._lock:
            self._frontier_size = entry.get("frontier_size",
                                            self._frontier_size)
            self.emit("frontier_round", **entry)

    def _run(self) -> None:
        from ..search.driver import CoverageSearch, design_search

        try:
            with self._lock:
                self.state = RUNNING
                self.emit("running")
            report = None
            if self.config is not None:
                search = CoverageSearch(self.config, store=self.store,
                                        on_round=self._on_round)
                report = search.run()
                with self._lock:
                    self.report = report.to_dict()
                    self._coverage = dict(report.coverage)
                    self._sessions = report.sessions
            if self.frontier_spec is not None:
                spec = dict(self.frontier_spec)
                frontier = design_search(
                    budget=int(spec.pop("budget", 8)),
                    seed=int(spec.pop("seed", 0)),
                    store=self.store,
                    designs=spec.pop("designs", ("saa2vga", "blur")),
                    bindings=spec.pop("bindings", None),
                    pixel_formats=spec.pop("formats", ("gray8",)),
                    frame_sizes=[tuple(size) for size in
                                 spec.pop("frames", [[8, 8], [16, 12]])],
                    capacities=spec.pop("capacities", (4, 8, 16)),
                    epsilon=float(spec.pop("epsilon", 0.2)),
                    on_round=self._on_frontier_round)
                with self._lock:
                    self.frontier = frontier.to_dict()
            with self._lock:
                failed = report is not None and not report.ok
                self.state = FAILED if failed else DONE
                self.finished_at = time.time()
                self.emit("completed", state=self.state,
                          sessions=self._sessions,
                          closed=(report.closed if report is not None
                                  else None),
                          frontier_size=self._frontier_size)
                _REGISTRY.inc("search_jobs_completed")
        except Exception:
            with self._lock:
                self.error = traceback.format_exc(limit=20)
                self.state = FAILED
                self.finished_at = time.time()
                self.emit("completed", state=self.state, error=self.error)
        finally:
            self._terminal.set()


class _Shard:
    """Dispatch bookkeeping for one shard of one job."""

    __slots__ = ("job_id", "shard_id", "point_dicts", "keys", "state",
                 "attempts", "trace_span", "dispatched_ns")

    def __init__(self, job_id: str, shard_id: int,
                 point_dicts: List[dict], keys: List[str]) -> None:
        self.job_id = job_id
        self.shard_id = shard_id
        self.point_dicts = point_dicts
        self.keys = keys
        self.state = "pending"
        self.attempts = 0
        #: Manager-side span id for the current attempt (traced jobs):
        #: allocated at dispatch, shipped to the worker as the parent of
        #: its ``worker.shard`` span, recorded when the reply arrives.
        self.trace_span: Optional[int] = None
        self.dispatched_ns = 0


class _Worker:
    """One pool member: process + private pipe + current assignment."""

    __slots__ = ("id", "process", "conn", "current", "assigned_at")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.current: Optional[_Shard] = None
        self.assigned_at = 0.0


class JobManager:
    """Owns the worker pool and every job's lifecycle.

    Parameters
    ----------
    store:
        Results are diffed against and persisted into this store; ``None``
        disables persistence (every submission simulates everything).
    workers:
        Worker-process pool size (each worker evaluates one shard at a
        time; the manager hands the next pending shard to whichever worker
        frees up first).
    shard_size:
        Points per shard — the retry/timeout granularity.
    shard_timeout:
        Seconds a shard may run before its worker is killed and the shard
        re-dispatched; ``None`` disables the timeout.
    max_retries:
        How many times a shard may be *re*-dispatched after a worker death
        or timeout before its points are recorded as failed.
    """

    _ids = itertools.count(1)

    def __init__(self, store: Optional[ResultStore] = None, workers: int = 2,
                 shard_size: int = 16, shard_timeout: Optional[float] = None,
                 max_retries: int = 1, poll_interval: float = 0.05) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.store = store
        self.n_workers = workers
        self.shard_size = shard_size
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.poll_interval = poll_interval
        self._ctx = multiprocessing.get_context()
        self._lock = threading.RLock()
        self._jobs: Dict[str, SweepJob] = {}
        self._pending: deque = deque()
        self._workers: Dict[int, _Worker] = {}
        self._worker_ids = itertools.count(1)
        self._closed = False
        #: Shards re-dispatched after a worker death or timeout (telemetry).
        self.requeues = 0
        for _ in range(workers):
            self._spawn_worker()
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="sweep-job-pump", daemon=True)
        self._pump.start()

    # -- public API --------------------------------------------------------

    def submit(self, points: Sequence, config: Optional[SweepConfig] = None
               ) -> SweepJob:
        """Register a sweep: diff against the store, shard, enqueue.

        Returns immediately; progress is observable via the job object
        (``job.progress()`` / ``job.wait()``) or the HTTP layer.
        """
        config = config or SweepConfig()
        points = list(points)
        if not points:
            raise ValueError("a sweep needs at least one point")
        plan = diff_points(points, self.store, config)
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            job = SweepJob(f"sweep-{next(self._ids):06d}", plan, config,
                           self._lock)
            self._jobs[job.id] = job
            job.emit("submitted", points=len(points),
                     unique=len(job.unique_keys))
            _REGISTRY.inc("sweep_jobs_submitted")
            _obs_tracing.add_event("job.submitted", job=job.id,
                                   points=len(points))
            if plan.cached:
                job.emit("cache_served", count=len(plan.cached))
                _REGISTRY.inc("sweep_cache_served", len(plan.cached))
                if job.trace is not None:
                    job.trace.add_instant("cache_served",
                                          job.trace.now_ns(),
                                          parent=job.trace.root_id,
                                          count=len(plan.cached))
            shards = split_shards(
                list(zip(plan.todo, plan.todo_keys)), self.shard_size)
            job.state = SHARDED
            job.emit("sharded", shards=len(shards),
                     shard_size=self.shard_size)
            for shard_id, pairs in enumerate(shards):
                shard = _Shard(
                    job.id, shard_id,
                    [point_to_dict(point) for point, _ in pairs],
                    [key for _, key in pairs])
                self._pending.append(shard)
            if shards:
                job.state = RUNNING
                self._dispatch()
            else:
                self._finalize(job)
        return job

    def submit_search(self, body: Dict[str, object]) -> SearchJob:
        """Register a coverage-directed search job (``POST /search``).

        ``body`` carries ``targets`` (list of registered verification
        target names) plus the optional knobs of
        :class:`repro.search.SearchConfig` (``budget``, ``cycles``,
        ``seed``, ``strategy``, ``batch``, ``epsilon``,
        ``min_coverage``), and/or a ``frontier`` dict (``budget``,
        ``seed``, ``designs``, ``bindings``, ``formats``, ``frames``,
        ``capacities``, ``epsilon``) for the design-axes Pareto search.
        Validation errors raise :class:`ValueError` before any thread
        starts, so the HTTP layer can 400 them.
        """
        from ..rtl import COMPILED
        from ..search.driver import SearchConfig

        known = {"targets", "budget", "cycles", "seed", "strategy",
                 "batch", "epsilon", "min_coverage", "frontier"}
        unknown = set(body) - known
        if unknown:
            raise ValueError(f"unknown search keys: {sorted(unknown)}")
        targets = body.get("targets") or []
        if not isinstance(targets, (list, tuple)):
            raise ValueError("'targets' must be a list of target names")
        frontier_spec = body.get("frontier")
        if frontier_spec is not None:
            if not isinstance(frontier_spec, dict):
                raise ValueError("'frontier' must be a JSON object")
            frontier_known = {"budget", "seed", "designs", "bindings",
                              "formats", "frames", "capacities", "epsilon"}
            frontier_unknown = set(frontier_spec) - frontier_known
            if frontier_unknown:
                raise ValueError(
                    f"unknown frontier keys: {sorted(frontier_unknown)}")
        if not targets and frontier_spec is None:
            raise ValueError("a search job needs 'targets' and/or "
                             "'frontier'")
        config = None
        if targets:
            config = SearchConfig(
                targets=tuple(str(t) for t in targets),
                budget=int(body.get("budget", 32)),
                cycles=(None if body.get("cycles") is None
                        else int(body["cycles"])),
                seed=int(body.get("seed", 0)),
                strategy=str(body.get("strategy", COMPILED)),
                batch=int(body.get("batch", 1)),
                epsilon=float(body.get("epsilon", 0.1)),
                min_coverage=float(body.get("min_coverage", 100.0)))
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            job = SearchJob(f"search-{next(self._ids):06d}", config,
                            frontier_spec, self.store, self._lock)
            self._jobs[job.id] = job
            job.emit("submitted",
                     targets=list(config.targets) if config else [],
                     budget=config.budget if config else 0,
                     frontier=frontier_spec is not None)
            _REGISTRY.inc("search_jobs_submitted")
            _obs_tracing.add_event("search.submitted", job=job.id)
        return job.start()

    def job(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[SweepJob]:
        with self._lock:
            return list(self._jobs.values())

    def queue_depth(self) -> int:
        """Shards waiting for a worker right now (``GET /healthz``)."""
        with self._lock:
            return len(self._pending)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (fault-injection tests kill these)."""
        with self._lock:
            return [worker.process.pid for worker in self._workers.values()
                    if worker.process.pid is not None]

    def close(self, timeout: float = 5.0) -> None:
        """Stop the pump and terminate the pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        self._pump.join(timeout)
        for worker in workers:
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            worker.conn.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker pool -------------------------------------------------------

    def _spawn_worker(self) -> None:
        worker_id = next(self._worker_ids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, worker_id),
            name=f"sweep-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        self._workers[worker_id] = _Worker(worker_id, process, parent_conn)

    def _dispatch(self) -> None:
        """Hand pending shards to idle workers (callers hold the lock)."""
        for worker in list(self._workers.values()):
            if not self._pending:
                return
            if worker.current is not None:
                continue
            shard = self._pending.popleft()
            job = self._jobs[shard.job_id]
            shard.attempts += 1
            shard.state = "running"
            worker.current = shard
            worker.assigned_at = time.monotonic()
            context_dict = None
            if job.trace is not None:
                # Allocate this attempt's manager-side span id *now* so
                # the worker's spans can name their parent before the
                # span record itself exists (it is written on reply).
                shard.trace_span = job.trace.next_id()
                shard.dispatched_ns = job.trace.now_ns()
                context_dict = job.trace.context(shard.trace_span).to_dict()
            try:
                worker.conn.send((shard.job_id, shard.shard_id,
                                  shard.point_dicts,
                                  job.config.to_dict(), context_dict))
            except (OSError, ValueError):
                self._worker_died(worker, "pipe closed on dispatch")
                continue
            job.emit("shard_started", shard=shard.shard_id,
                     attempt=shard.attempts, worker=worker.id,
                     points=len(shard.keys))
            _REGISTRY.inc("sweep_shards_dispatched")
            _obs_tracing.add_event("shard.dispatched", job=job.id,
                                   shard=shard.shard_id, worker=worker.id,
                                   attempt=shard.attempts)

    # -- event pump --------------------------------------------------------

    def _pump_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = {worker.conn: worker
                         for worker in self._workers.values()}
            try:
                ready = mp_connection.wait(list(conns),
                                           timeout=self.poll_interval)
            except OSError:
                ready = []
            with self._lock:
                if self._closed:
                    return
                for conn in ready:
                    worker = conns.get(conn)
                    if worker is None or worker.id not in self._workers:
                        continue
                    try:
                        message = conn.recv()
                    except Exception:
                        self._worker_died(worker, "worker died mid-shard")
                        continue
                    self._handle_message(worker, message)
                self._reap_dead_workers()
                self._check_timeouts()
                self._dispatch()

    def _handle_message(self, worker: _Worker, message) -> None:
        kind, job_id, shard_id, payload, telemetry = message
        shard = worker.current
        elapsed = time.monotonic() - worker.assigned_at
        worker.current = None
        if (shard is None or shard.job_id != job_id
                or shard.shard_id != shard_id or shard.state != "running"):
            return  # stale reply from a shard already re-dispatched
        job = self._jobs[job_id]
        self._fold_telemetry(job, shard, telemetry or {})
        if kind == "done":
            shard.state = "done"
            for key, record in payload:
                job.results[key] = record
                if self.store is not None:
                    self.store.put(key, record)
            job.shard_seconds.append(elapsed)
            _REGISTRY.observe("sweep_shard_seconds", elapsed)
            job.emit("shard_done", shard=shard.shard_id,
                     attempt=shard.attempts, points=len(payload))
            _obs_tracing.add_event("shard.done", job=job_id,
                                   shard=shard.shard_id,
                                   seconds=round(elapsed, 6))
            self._maybe_finish(job)
        else:  # "error": the evaluation itself raised — deterministic, no retry
            shard.state = "failed"
            self._fail_shard_points(job, shard, str(payload))
            job.emit("shard_error", shard=shard.shard_id, error=str(payload))
            _REGISTRY.inc("sweep_shard_errors")
            _obs_tracing.add_event("shard.error", job=job_id,
                                   shard=shard.shard_id)
            self._maybe_finish(job)

    def _fold_telemetry(self, job: SweepJob, shard: _Shard,
                        telemetry: Dict[str, object]) -> None:
        """Fold one shard reply's telemetry into manager-side state.

        Counter deltas always fold (``GET /metrics`` stays pool-wide even
        for untraced jobs); span payloads only exist — and only merge —
        when the job is traced.  Stale replies never reach here,
        so a re-dispatched shard's telemetry is counted exactly once.
        """
        _distributed.fold_counter_deltas(telemetry.get("counters"))
        if job.trace is None or shard.trace_span is None:
            return
        summary = job.trace.merge_worker(telemetry, shard.trace_span)
        job.trace.add_span(
            "shard", shard.dispatched_ns, job.trace.now_ns(),
            parent=job.trace.root_id, span_id=shard.trace_span,
            shard=shard.shard_id, attempt=shard.attempts,
            worker_pid=telemetry.get("pid"), points=len(shard.keys))
        job.emit("span", name="shard", shard=shard.shard_id,
                 attempt=shard.attempts, worker_pid=telemetry.get("pid"),
                 spans=summary["spans"], dropped=summary["dropped"])

    def _reap_dead_workers(self) -> None:
        for worker in list(self._workers.values()):
            if not worker.process.is_alive():
                self._worker_died(worker, "worker process exited")

    def _check_timeouts(self) -> None:
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if (worker.current is not None
                    and now - worker.assigned_at > self.shard_timeout):
                worker.process.kill()
                worker.process.join(0.5)
                self._worker_died(worker, "shard timeout")

    def _worker_died(self, worker: _Worker, reason: str) -> None:
        """Replace a dead worker; requeue or fail its in-flight shard."""
        self._workers.pop(worker.id, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        shard = worker.current
        if shard is not None and shard.state == "running":
            job = self._jobs[shard.job_id]
            if job.trace is not None and shard.trace_span is not None:
                # The attempt's telemetry died with the worker — record
                # the manager-side span flagged "lost" (never a hole),
                # and surrender the span id: a retry gets a fresh one.
                job.trace.mark_lost(shard.shard_id, shard.trace_span,
                                    shard.dispatched_ns, shard.attempts,
                                    reason)
                job.emit("span", name="shard", shard=shard.shard_id,
                         attempt=shard.attempts, telemetry="lost",
                         reason=reason)
                shard.trace_span = None
            if shard.attempts <= self.max_retries:
                shard.state = "pending"
                self._pending.appendleft(shard)
                self.requeues += 1
                _REGISTRY.inc("sweep_shard_requeues")
                job.emit("shard_requeued", shard=shard.shard_id,
                         attempt=shard.attempts, reason=reason)
                _obs_tracing.add_event("shard.requeued", job=job.id,
                                       shard=shard.shard_id, reason=reason)
            else:
                shard.state = "failed"
                self._fail_shard_points(job, shard, reason)
                job.emit("shard_failed", shard=shard.shard_id,
                         attempts=shard.attempts, reason=reason)
                _obs_tracing.add_event("shard.failed", job=job.id,
                                       shard=shard.shard_id, reason=reason)
                self._maybe_finish(job)
        if not self._closed and len(self._workers) < self.n_workers:
            self._spawn_worker()
            _REGISTRY.inc("sweep_worker_restarts")

    # -- completion --------------------------------------------------------

    def _fail_shard_points(self, job: SweepJob, shard: _Shard,
                           reason: str) -> None:
        """Record per-point failures.  Failures are job state only — they
        are never written to the store, so a transient fault cannot poison
        future sweeps."""
        for key, point_dict in zip(shard.keys, shard.point_dicts):
            job.failures[key] = {"key": key, "point": point_dict,
                                 "error": reason}

    def _maybe_finish(self, job: SweepJob) -> None:
        accounted = len(job.results) + len(job.failures)
        if accounted >= len(job.unique_keys):
            self._finalize(job)

    def _finalize(self, job: SweepJob) -> None:
        if job.done:
            return
        job.state = FAILED if job.failures else DONE
        job.finished_at = time.time()
        if job.trace is not None:
            job.trace.finish(state=job.state,
                             cached=len(job.cached_keys),
                             failed=len(job.failures))
        job.emit("completed", state=job.state,
                 cached=len(job.cached_keys),
                 simulated=len(job.results) - len(job.cached_keys),
                 failed=len(job.failures))
        _obs_tracing.add_event("job.completed", job=job.id, state=job.state)
        job._terminal.set()

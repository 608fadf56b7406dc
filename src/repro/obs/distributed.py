"""Cross-process trace propagation and sweep-wide trace merging.

The in-process instruments (:mod:`repro.obs.tracing`,
:mod:`repro.obs.metrics`) stop at the process boundary — and the
production sweep path (:mod:`repro.serve.jobs`) farms shards to
SIGKILL-able worker processes.  This module is the bridge:

* **Context propagation** — the manager stamps every dispatched shard
  with a :class:`TraceContext` (sweep trace id + the manager-side span
  the worker's spans will hang under + the shared timeline origin).
* **Worker capture** — :func:`reset_worker_telemetry` scrubs the
  telemetry state a forked worker inherited from its parent, and
  :class:`ShardCapture` records the worker's spans and metric deltas
  for one shard and packs them into a bounded, picklable payload that
  rides back on the existing pipe reply.
* **Merge** — :class:`JobTrace` (owned by the manager, one per traced
  job) assembles manager-side spans and worker payloads into a single
  sweep-wide trace: worker-local span ids are remapped to globally
  unique ids, worker roots are re-parented under their shard's
  manager-side span, timestamps are shifted onto the job's timeline, and
  every worker process becomes its own labeled lane in the
  Chrome/Perfetto export.  A killed worker ships nothing — its shard's
  span is flagged ``telemetry: "lost"`` instead of silently vanishing.
* **Analysis** — :func:`timeline_report` turns a merged trace into the
  operator view: per-worker utilization, queue-wait vs. evaluate-time,
  critical-path extraction and straggler/retry attribution
  (``python -m repro.obs timeline``).

Everything here is deterministic given its inputs: merging the same
payloads in the same order produces byte-identical NDJSON (pinned by
``tests/obs/test_export_edges.py``), which is what makes merged traces
diffable artifacts rather than one-off debugging aids.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import tracing
from .export import PROCESS_NAME, TRACE_META, meta_record
from .metrics import REGISTRY

#: Payload schema version shipped with every worker telemetry blob.
SCHEMA_VERSION = 1

#: Most spans a single shard reply may carry (newest win; the overflow is
#: counted in ``dropped_spans``).  Bounds the pipe message size by
#: construction — a worker can never wedge the manager with a giant blob.
DEFAULT_WORKER_SPAN_LIMIT = 20_000

#: Most records a merged job trace retains (manager side).
DEFAULT_TRACE_CAPACITY = 500_000


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceContext:
    """Everything a worker needs to record spans onto a sweep's timeline.

    ``trace_id`` names the sweep (the job id), ``parent_id`` is the
    manager-side span id the worker's root spans re-parent under, and
    ``epoch_ns`` is the wall-clock origin of the job timeline — the
    worker ships its own wall-clock anchor back so the manager can shift
    worker-relative timestamps onto the shared axis.
    """

    trace_id: str
    parent_id: int
    epoch_ns: int
    capacity: int = tracing.DEFAULT_CAPACITY

    def to_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "parent_id": self.parent_id,
                "epoch_ns": self.epoch_ns, "capacity": self.capacity}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceContext":
        missing = {"trace_id", "parent_id", "epoch_ns"} - set(data)
        if missing:
            raise ValueError(f"trace context missing keys: {sorted(missing)}")
        return cls(trace_id=str(data["trace_id"]),
                   parent_id=int(data["parent_id"]),
                   epoch_ns=int(data["epoch_ns"]),
                   capacity=int(data.get("capacity",
                                         tracing.DEFAULT_CAPACITY)))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Unlabeled-counter snapshot at the last shard reply (worker process).
_COUNTER_BASELINE: Dict[str, float] = {}


def reset_worker_telemetry() -> None:
    """Scrub all telemetry state in a just-started worker process.

    Under the ``fork`` start method a worker begins life with a full
    copy of the parent's metrics registry, tracing ring buffer and
    active-session flag.  Without this reset the worker's first counter
    delta would re-ship everything the *parent* ever counted (pool-wide
    aggregation would double-count it), and a tracing session enabled in
    the parent (``--trace`` or ``--profile``) would leak parent spans
    into worker exports.  Called first thing in
    ``repro.serve.jobs._worker_main``.
    """
    tracing.reset()
    REGISTRY.reset()
    _COUNTER_BASELINE.clear()


def counter_deltas() -> Dict[str, float]:
    """Unlabeled-counter change since the previous call (worker side).

    Returns only names whose value moved, and advances the baseline, so
    successive shard replies ship disjoint increments: folding every
    reply into the manager registry reconstructs the worker's totals
    exactly once.
    """
    current = REGISTRY.counters()
    deltas = {name: value - _COUNTER_BASELINE.get(name, 0)
              for name, value in current.items()
              if value != _COUNTER_BASELINE.get(name, 0)}
    _COUNTER_BASELINE.clear()
    _COUNTER_BASELINE.update(current)
    return deltas


def fold_counter_deltas(deltas: Optional[Dict[str, object]]) -> None:
    """Fold a worker's counter deltas into this process's registry.

    Makes ``GET /metrics`` pool-wide: the manager's scrape then reflects
    simulation counters from every worker, not just service-side
    bookkeeping.  Names that exist locally as a non-counter kind are
    skipped rather than corrupting the exposition.
    """
    for name in sorted(deltas or {}):
        value = deltas[name]
        if not isinstance(value, (int, float)) or value <= 0:
            continue
        try:
            REGISTRY.inc(name, value)
        except ValueError:
            pass  # registered locally as a gauge/histogram: not foldable


class ShardCapture:
    """Worker-side telemetry capture around one shard evaluation.

    ``begin`` activates tracing when the dispatch carried a
    :class:`TraceContext` (untraced jobs pay nothing: no enable, no span,
    just one counter-snapshot diff per *shard*, never per cycle), and
    ``finish`` packs the capture into the reply payload.  Exceptions in
    the evaluation flow through ``finish`` too — an "error" reply still
    carries whatever telemetry the attempt produced.
    """

    def __init__(self, context: Optional[TraceContext]) -> None:
        self.context = context
        self.epoch_ns: Optional[int] = None
        self._span = None
        self._payload: Optional[Dict[str, object]] = None
        if context is not None:
            self.epoch_ns = time.time_ns()
            tracing.enable(context.capacity)
            self._span = tracing.span("worker.shard",
                                      trace_id=context.trace_id)
            self._span.__enter__()

    @classmethod
    def begin(cls, context_dict: Optional[Dict[str, object]]
              ) -> "ShardCapture":
        context = None
        if context_dict:
            try:
                context = TraceContext.from_dict(context_dict)
            except (TypeError, ValueError):
                context = None  # malformed context: evaluate untraced
        return cls(context)

    def finish(self, span_limit: int = DEFAULT_WORKER_SPAN_LIMIT
               ) -> Dict[str, object]:
        if self._payload is not None:  # idempotent: error-path after a
            return self._payload       # failed "done" send re-packs
        payload: Dict[str, object] = {
            "v": SCHEMA_VERSION,
            "pid": os.getpid(),
            "counters": counter_deltas(),
        }
        self._payload = payload
        if self.context is None:
            return payload
        self._span.__exit__(None, None, None)
        tracing.disable()
        dropped = tracing.stats()["dropped"]
        spans = tracing.drain()
        if len(spans) > span_limit:
            dropped += len(spans) - span_limit
            spans = spans[-span_limit:]  # newest records win, like the ring
        payload.update(epoch_ns=self.epoch_ns, spans=spans,
                       dropped_spans=dropped)
        return payload


# ---------------------------------------------------------------------------
# Merge (manager side)
# ---------------------------------------------------------------------------

def remap_worker_records(spans: Sequence[dict], id_start: int,
                         parent_id: Optional[int], ts_offset_ns: int,
                         ) -> Tuple[List[dict], int]:
    """Rebase worker-local records onto the job timeline.

    Worker span ids restart from 1 every session, so two workers' buffers
    collide; this assigns fresh ids from ``id_start`` (in record order —
    deterministic), points orphaned parents (worker roots, or children of
    ring-evicted spans) at ``parent_id``, and shifts every timestamp by
    ``ts_offset_ns``.  Returns the remapped records and the next free id.
    """
    ids = itertools.count(id_start)
    id_map: Dict[int, int] = {}
    for record in spans:
        old = record.get("id")
        if old is not None:
            id_map[old] = next(ids)
    out = []
    for record in spans:
        merged = dict(record)
        old_id = record.get("id")
        if old_id is not None:
            merged["id"] = id_map[old_id]
        old_parent = record.get("parent")
        merged["parent"] = id_map.get(old_parent, parent_id) \
            if old_parent is not None else parent_id
        merged["ts"] = record.get("ts", 0) + ts_offset_ns
        out.append(merged)
    return out, next(ids)


class JobTrace:
    """One sweep's merged trace, assembled incrementally by the manager.

    Manager-side spans (the job root, per-shard dispatch→reply spans,
    instant lifecycle events) are recorded with explicit timestamps from
    :meth:`now_ns`; worker payloads are merged as their replies arrive.
    All mutation happens under the owning manager's lock.  ``epoch_ns``
    is injectable so merge behaviour is testable deterministically.
    """

    def __init__(self, trace_id: str,
                 capacity: int = DEFAULT_TRACE_CAPACITY,
                 epoch_ns: Optional[int] = None,
                 pid: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.trace_id = trace_id
        self.capacity = capacity
        self.epoch_ns = time.time_ns() if epoch_ns is None else epoch_ns
        self._t0 = time.perf_counter_ns()
        self.pid = os.getpid() if pid is None else pid
        self._next_id = 1
        #: The job root span's id, allocated eagerly so shard spans can
        #: parent under it before the root record exists (it is appended
        #: by :meth:`finish` when the job reaches a terminal state).
        self.root_id = self.next_id()
        self._records: List[dict] = []
        self.dropped = 0
        #: pid -> human lane label for the Chrome/Perfetto export.
        self.processes: Dict[int, str] = {self.pid: "sweep-manager"}
        #: Worker pids that shipped telemetry.
        self.worker_pids: set = set()
        #: Shard attempts whose telemetry died with the worker.
        self.lost_shards = 0
        self.finished = False

    # -- clock / ids -------------------------------------------------------

    def now_ns(self) -> int:
        """Nanoseconds since the job timeline origin."""
        return time.perf_counter_ns() - self._t0

    def next_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def context(self, parent_id: int) -> TraceContext:
        """The :class:`TraceContext` to stamp on a dispatched shard."""
        return TraceContext(trace_id=self.trace_id, parent_id=parent_id,
                            epoch_ns=self.epoch_ns)

    # -- recording ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        if len(self._records) >= self.capacity:
            self.dropped += 1
            return
        self._records.append(record)

    def add_span(self, name: str, start_ns: int, end_ns: int,
                 parent: Optional[int] = None,
                 span_id: Optional[int] = None, tid: int = 0,
                 **args) -> int:
        """Record one manager-side span with explicit timestamps."""
        span_id = self.next_id() if span_id is None else span_id
        self._append({"name": name, "ph": "X", "ts": start_ns,
                      "dur": max(0, end_ns - start_ns), "pid": self.pid,
                      "tid": tid, "id": span_id, "parent": parent,
                      "args": args})
        return span_id

    def add_instant(self, name: str, ts_ns: int,
                    parent: Optional[int] = None, **args) -> int:
        span_id = self.next_id()
        self._append({"name": name, "ph": "i", "ts": ts_ns, "pid": self.pid,
                      "tid": 0, "id": span_id, "parent": parent,
                      "args": args})
        return span_id

    def merge_worker(self, telemetry: Dict[str, object],
                     parent_id: int) -> Dict[str, int]:
        """Fold one shard reply's span payload into the merged trace.

        Worker timestamps are relative to the worker's tracing enable;
        the shipped ``epoch_ns`` anchors them onto the job timeline.
        Returns a small summary for the job's event log.
        """
        spans = list(telemetry.get("spans") or ())
        pid = int(telemetry.get("pid", 0))
        if pid:
            self.worker_pids.add(pid)
            self.processes.setdefault(pid, f"sweep-worker pid={pid}")
        offset = int(telemetry.get("epoch_ns", self.epoch_ns)) - self.epoch_ns
        merged, self._next_id = remap_worker_records(
            spans, self._next_id, parent_id, offset)
        for record in merged:
            self._append(record)
        dropped = int(telemetry.get("dropped_spans", 0))
        self.dropped += dropped
        return {"spans": len(merged), "dropped": dropped, "pid": pid}

    def mark_lost(self, shard_id: int, span_id: int, start_ns: int,
                  attempt: int, reason: str) -> None:
        """Record a shard attempt whose worker died before replying.

        The attempt still gets its manager-side span — flagged
        ``telemetry: "lost"`` — so the timeline shows *when* the loss
        happened instead of a hole.
        """
        self.lost_shards += 1
        self.add_span("shard", start_ns, self.now_ns(), parent=self.root_id,
                      span_id=span_id, shard=shard_id, attempt=attempt,
                      telemetry="lost", reason=reason)

    def finish(self, end_ns: Optional[int] = None, **args) -> None:
        """Append the job root span (idempotent)."""
        if self.finished:
            return
        self.finished = True
        end = self.now_ns() if end_ns is None else end_ns
        self._append({"name": "sweep", "ph": "X", "ts": 0, "dur": end,
                      "pid": self.pid, "tid": 0, "id": self.root_id,
                      "parent": None,
                      "args": {"trace_id": self.trace_id, **args}})

    # -- export ------------------------------------------------------------

    def export_records(self) -> List[dict]:
        """The merged trace in raw-record form (header + lanes + spans).

        Deterministic given the recorded state: the header and
        ``process_name`` metadata lead, then every span/instant record
        sorted by ``(ts, id)`` — so identical merges export
        byte-identical NDJSON.
        """
        header = meta_record(
            TRACE_META, pid=self.pid, trace_id=self.trace_id,
            distributed=True, schema=SCHEMA_VERSION,
            dropped_spans=self.dropped,
            workers=sorted(self.worker_pids),
            lost_shards=self.lost_shards)
        lanes = [meta_record(PROCESS_NAME, pid=pid, name=label)
                 for pid, label in sorted(self.processes.items())]
        body = sorted(self._records,
                      key=lambda r: (r.get("ts", 0), r.get("id") or 0))
        return [header] + lanes + body

    def __len__(self) -> int:
        return len(self._records)


# ---------------------------------------------------------------------------
# Timeline analysis (python -m repro.obs timeline)
# ---------------------------------------------------------------------------

def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.1f}"


def timeline_report(records: Sequence[dict]) -> str:
    """Sweep-timeline analysis of a (merged) trace.

    Four sections: per-worker utilization, queue-wait vs. evaluate-time
    breakdown per shard, the critical path (root → latest-finishing
    descendant chain), and straggler/retry/lost-telemetry attribution.
    Works best on merged distributed traces (``GET /sweeps/<id>/trace``)
    but degrades gracefully on single-process traces.
    """
    spans = [r for r in records if r.get("ph") == "X"]
    if not spans:
        return "no spans in trace — nothing to analyze"
    lines: List[str] = []
    children: Dict[Optional[int], List[dict]] = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record)
    roots = [r for r in spans
             if r.get("parent") is None and r.get("id") is not None]
    root = max(roots, key=lambda r: r.get("dur", 0)) if roots else None
    start = min(r.get("ts", 0) for r in spans)
    end = max(r.get("ts", 0) + r.get("dur", 0) for r in spans)
    window = root["dur"] if root and root.get("dur") else max(1, end - start)
    header = f"timeline: {_fmt_ms(window)} ms total"
    if root is not None:
        header += f" (root span {root['name']!r})"
    lines.append(header)

    labels = {r["pid"]: (r.get("args") or {}).get("name")
              for r in records
              if r.get("ph") == "M" and r.get("name") == PROCESS_NAME}
    shard_spans = sorted((r for r in spans if r["name"] == "shard"),
                         key=lambda r: r.get("ts", 0))
    worker_spans = [r for r in spans if r["name"] == "worker.shard"]
    eval_by_parent = {r.get("parent"): r for r in worker_spans}

    # -- per-worker utilization -------------------------------------------
    lanes: Dict[int, Dict[str, float]] = {}
    for record in worker_spans:
        lane = lanes.setdefault(record["pid"], {"busy": 0, "shards": 0})
        lane["busy"] += record.get("dur", 0)
        lane["shards"] += 1
    if lanes:
        lines.append("")
        lines.append("per-worker utilization:")
        lines.append(f"  {'worker':<24} {'shards':>6} {'busy ms':>10} "
                     f"{'util %':>7}")
        for pid in sorted(lanes):
            lane = lanes[pid]
            label = labels.get(pid) or f"pid={pid}"
            lines.append(
                f"  {label:<24} {int(lane['shards']):>6} "
                f"{_fmt_ms(lane['busy']):>10} "
                f"{lane['busy'] / window * 100:>6.1f}%")

    # -- queue wait vs evaluate time --------------------------------------
    if shard_spans:
        root_ts = root.get("ts", 0) if root is not None else start
        waits, evals, overheads = [], [], []
        for shard in shard_spans:
            waits.append(shard.get("ts", 0) - root_ts)
            worker = eval_by_parent.get(shard.get("id"))
            evaluated = worker.get("dur", 0) if worker is not None else 0
            evals.append(evaluated)
            overheads.append(max(0, shard.get("dur", 0) - evaluated))
        lines.append("")
        lines.append(
            f"shard breakdown ({len(shard_spans)} attempt(s)): "
            f"queue-wait mean {_fmt_ms(sum(waits) / len(waits))} ms "
            f"(max {_fmt_ms(max(waits))}), "
            f"evaluate mean {_fmt_ms(sum(evals) / len(evals))} ms, "
            f"dispatch/IPC overhead mean "
            f"{_fmt_ms(sum(overheads) / len(overheads))} ms")

    # -- critical path -----------------------------------------------------
    if root is not None:
        lines.append("")
        lines.append("critical path (latest-finishing chain):")
        node = root
        depth = 0
        while node is not None and depth < 12:
            where = labels.get(node["pid"]) or f"pid={node['pid']}"
            args = node.get("args") or {}
            detail = "".join(f" {k}={args[k]}" for k in ("shard", "attempt")
                             if k in args)
            lines.append(f"  {'  ' * depth}{node['name']} "
                         f"[{where}]{detail}: {_fmt_ms(node.get('dur', 0))} "
                         f"ms @ {_fmt_ms(node.get('ts', 0))}")
            kids = children.get(node.get("id"))
            node = max(kids, key=lambda r: r.get("ts", 0) + r.get("dur", 0)) \
                if kids else None
            depth += 1

    # -- stragglers, retries, losses --------------------------------------
    flagged: List[str] = []
    if len(shard_spans) >= 2:
        durations = sorted(r.get("dur", 0) for r in shard_spans)
        median = durations[len(durations) // 2]
        for shard in shard_spans:
            if median and shard.get("dur", 0) > 1.5 * median:
                args = shard.get("args") or {}
                flagged.append(
                    f"straggler: shard {args.get('shard', '?')} took "
                    f"{_fmt_ms(shard['dur'])} ms "
                    f"({shard['dur'] / median:.1f}x the median) on "
                    f"worker_pid={args.get('worker_pid', '?')}")
    for shard in shard_spans:
        args = shard.get("args") or {}
        if args.get("attempt", 1) and int(args.get("attempt", 1)) > 1:
            flagged.append(f"retry: shard {args.get('shard', '?')} "
                           f"attempt {args['attempt']} "
                           f"({args.get('reason', 'redispatched')})")
        if args.get("telemetry") == "lost":
            flagged.append(f"lost telemetry: shard {args.get('shard', '?')} "
                           f"attempt {args.get('attempt', '?')} "
                           f"({args.get('reason', 'worker died')})")
    if flagged:
        lines.append("")
        lines.append("attribution flags:")
        lines.extend(f"  - {line}" for line in flagged)
    elif shard_spans:
        lines.append("")
        lines.append("attribution flags: none "
                     "(no stragglers, retries or lost telemetry)")
    return "\n".join(lines)

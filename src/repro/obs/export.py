"""Trace-record export, import, summary and validation.

Two interchangeable file formats for the records produced by
:mod:`repro.obs.tracing`:

* **NDJSON** — one record dict per line, lossless (keeps span ids,
  parents and nanosecond fields).  The round-trip format for
  ``python -m repro.obs summarize``.
* **Chrome trace-event JSON** — ``{"traceEvents": [...]}`` with complete
  ``"X"`` duration events and ``"i"`` instant events, microsecond
  timestamps, sorted by ``ts``.  Loadable by Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.

:func:`summarize` aggregates either format into a per-phase table plus a
wall-time *attribution* figure: for the longest root span, the fraction
of its duration covered by its direct children — the "≥ 95% of wall time
is attributed to named phases" acceptance metric of the telemetry layer.
:func:`profile_report` adds kernel rates and compile accounting to it:
the ``--profile`` report.
:func:`validate_chrome` checks the structural invariants the trace
integrity tests (and the CI observability smoke job) pin: monotonic
``ts``, complete events only, stable ``pid``/``tid``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

#: Name of the trace-level metadata header record (``ph == "M"``).
TRACE_META = "trace.meta"
#: Name of the per-process lane-label metadata record (Chrome convention).
PROCESS_NAME = "process_name"


def meta_record(record_name: str = TRACE_META, pid: Optional[int] = None,
                **args) -> dict:
    """A metadata record (``ph == "M"``) in the raw-record schema.

    Metadata records carry trace-level facts that are not spans: the
    ``trace.meta`` header holds truncation accounting
    (``dropped_spans``) and distributed-merge provenance, and
    ``process_name`` records label the per-worker process lanes of a
    merged trace (the Chrome/Perfetto convention, which also licenses a
    multi-pid trace past :func:`validate_chrome` — the lane label rides
    in ``args["name"]``, hence the ``record_name`` parameter spelling).
    """
    return {"name": record_name, "ph": "M", "ts": 0,
            "pid": os.getpid() if pid is None else pid, "tid": 0,
            "id": None, "parent": None, "args": args}


def dropped_spans(records: Sequence[dict]) -> int:
    """Total ``dropped_spans`` declared by the trace's metadata headers."""
    total = 0
    for record in records:
        if record.get("ph") == "M" and record.get("name") == TRACE_META:
            value = (record.get("args") or {}).get("dropped_spans", 0)
            if isinstance(value, (int, float)):
                total += int(value)
    return total


# ---------------------------------------------------------------------------
# Writers / readers
# ---------------------------------------------------------------------------

def write_ndjson(records: Sequence[dict], path) -> None:
    """One JSON record per line, in buffer (completion) order."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_ndjson(path) -> List[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def to_chrome(records: Sequence[dict]) -> dict:
    """Chrome trace-event payload from raw records (sorted by ``ts``)."""
    events = []
    for record in sorted(records, key=lambda r: r["ts"]):
        event = {
            "name": record["name"],
            "cat": "repro",
            "ph": record["ph"],
            "ts": record["ts"] / 1000.0,        # ns -> us
            "pid": record["pid"],
            "tid": record["tid"],
            "args": dict(record.get("args") or {}),
        }
        if record["ph"] == "X":
            event["dur"] = record["dur"] / 1000.0
        elif record["ph"] == "i":
            event["s"] = "t"                     # thread-scoped instant
        # "M" metadata events carry only name/pid/args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(records: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome(records), handle, indent=1)


def write_trace(records: Sequence[dict], path) -> str:
    """Write ``records`` in the format ``path``'s extension selects.

    ``.ndjson`` (or ``.jsonl``) writes NDJSON; anything else writes the
    Chrome trace-event form.  Returns the format written.
    """
    if str(path).endswith((".ndjson", ".jsonl")):
        write_ndjson(records, path)
        return "ndjson"
    write_chrome(records, path)
    return "chrome"


def read_trace(path) -> List[dict]:
    """Read either format back into raw-record form.

    Chrome payloads lose span ids/parents (the format has no complete-event
    nesting ids), so records reconstructed from them carry
    ``id=None``/``parent=None``; summaries still work, tree-accurate
    attribution needs the NDJSON form.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith((".ndjson", ".jsonl")):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    # Other extensions: a single Chrome trace-event JSON document — unless
    # the document is not one JSON object, in which case fall through to
    # line-parsing (an NDJSON trace under a surprising extension).
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        records = []
        for event in payload.get("traceEvents", []):
            record = {
                "name": event.get("name"), "ph": event.get("ph"),
                "ts": int(event.get("ts", 0) * 1000),
                "pid": event.get("pid"), "tid": event.get("tid"),
                "id": event.get("id"), "parent": None,
                "args": event.get("args", {}),
            }
            if event.get("ph") == "X":
                record["dur"] = int(event.get("dur", 0) * 1000)
            records.append(record)
        return records
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_chrome(payload: dict) -> List[str]:
    """Structural problems in a Chrome trace payload (empty == valid).

    A single-process trace must use one stable pid.  A *merged* trace
    (worker spans folded into one sweep-wide timeline) legitimately
    spans several pids — but then every pid must be labeled by a
    ``process_name`` metadata event, so an unlabeled pid mixture is
    still flagged as corruption rather than silently accepted.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    if not events:
        problems.append("trace contains zero events")
    last_ts = None
    pids = set()
    labeled_pids = set()
    for i, event in enumerate(events):
        where = f"event[{i}] ({event.get('name')!r})"
        ph = event.get("ph")
        if ph == "M":
            if "name" not in event or "pid" not in event:
                problems.append(f"{where}: metadata event without name/pid")
            elif event["name"] == PROCESS_NAME:
                labeled_pids.add(event["pid"])
            continue
        if ph not in ("X", "i"):
            problems.append(f"{where}: phase {ph!r} is not a complete 'X' "
                            "or instant 'i' event")
            continue
        for field in ("name", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: complete event without numeric dur")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if last_ts is not None and ts < last_ts:
                problems.append(f"{where}: ts {ts} < previous {last_ts} "
                                "(events must be sorted)")
            last_ts = ts
        pids.add(event.get("pid"))
    if len(pids) > 1 and not pids <= labeled_pids:
        unlabeled = pids - labeled_pids
        problems.append(
            f"unstable pid set: {sorted(map(str, pids))} "
            f"(pids {sorted(map(str, unlabeled))} carry no process_name "
            "metadata — merged traces must label every process lane)")
    return problems


# ---------------------------------------------------------------------------
# Summary / attribution
# ---------------------------------------------------------------------------

def phase_totals(records: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per-name aggregates over span records: count, total/mean/max ms."""
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("ph") != "X":
            continue
        entry = totals.setdefault(record["name"],
                                  {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
        dur_ms = record.get("dur", 0) / 1e6
        entry["count"] += 1
        entry["total_ms"] += dur_ms
        entry["max_ms"] = max(entry["max_ms"], dur_ms)
    for entry in totals.values():
        entry["mean_ms"] = entry["total_ms"] / max(1, entry["count"])
    return totals


def attribution(records: Sequence[dict]) -> Optional[Tuple[dict, float]]:
    """(root span, covered fraction) for the longest root span, or ``None``.

    The covered fraction is the share of the root's duration accounted
    for by its *direct* children — the span-tree wall-time attribution
    the telemetry acceptance criterion gates on.  Needs id/parent fields
    (NDJSON traces, or in-process records).
    """
    spans = [r for r in records if r.get("ph") == "X"]
    roots = [r for r in spans
             if r.get("parent") is None and r.get("id") is not None]
    if not roots:
        return None
    root = max(roots, key=lambda r: r.get("dur", 0))
    if not root.get("dur"):
        return root, 0.0
    covered = sum(r.get("dur", 0) for r in spans
                  if r.get("parent") == root["id"])
    return root, min(1.0, covered / root["dur"])


def summarize(records: Sequence[dict]) -> str:
    """Human-readable per-phase summary table (plus attribution when known)."""
    spans = [r for r in records if r.get("ph") == "X"]
    events = [r for r in records if r.get("ph") == "i"]
    lines = [f"{len(spans)} span(s), {len(events)} instant event(s)"]
    pids = sorted({r.get("pid") for r in spans + events}, key=str)
    if len(pids) > 1:
        lines.append(f"merged trace across {len(pids)} process(es): "
                     f"{', '.join(map(str, pids))}")
    dropped = dropped_spans(records)
    if dropped:
        lines.append(f"WARNING: {dropped} span(s) dropped "
                     "(ring buffer wrapped — the trace is truncated)")
    totals = phase_totals(records)
    if totals:
        width = max(len(name) for name in totals)
        lines.append(f"{'phase':<{width}}  {'count':>7}  {'total ms':>10}  "
                     f"{'mean ms':>9}  {'max ms':>9}")
        for name in sorted(totals, key=lambda n: -totals[n]["total_ms"]):
            entry = totals[name]
            lines.append(
                f"{name:<{width}}  {entry['count']:>7}  "
                f"{entry['total_ms']:>10.3f}  {entry['mean_ms']:>9.3f}  "
                f"{entry['max_ms']:>9.3f}")
    attributed = attribution(records)
    if attributed is not None:
        root, fraction = attributed
        lines.append(
            f"root span {root['name']!r}: {root.get('dur', 0) / 1e6:.3f} ms, "
            f"{fraction * 100:.1f}% attributed to direct children")
    return "\n".join(lines)


def profile_report(records: Sequence[dict],
                   counters: Dict[str, float]) -> str:
    """The ``--profile`` report: a view over a run's spans and counters.

    :func:`summarize` of ``records``; one ``kernel:`` line per settle
    strategy, summing the cycles and durations of its batch ``step``
    spans and its ``run_until`` spans (named ``settle``); and a
    ``compile:`` line read from ``counters``, the run's
    :data:`~repro.obs.metrics.REGISTRY` counter deltas.  Pool workers
    ship those deltas back on every shard reply, so the compile line
    counts their constructions too.
    """
    lines = [summarize(records)]
    kernels: Dict[str, List[float]] = {}
    for record in records:
        args = record.get("args") or {}
        if record.get("ph") == "X" and (record.get("name") == "step"
                                        or args.get("kind") == "run_until"):
            kernel = kernels.setdefault(str(args.get("strategy")), [0, 0, 0])
            kernel[0] += args.get("cycles", 0)
            kernel[1] += record.get("dur", 0) / 1e9
            kernel[2] += 1
    for strategy in sorted(kernels):
        cycles, seconds, spans = kernels[strategy]
        rate = cycles / seconds / 1e3 if seconds else 0.0
        lines.append(f"kernel: {strategy} {cycles} cycle(s) in "
                     f"{seconds:.3f} s, {rate:.1f} kcyc/s ({spans} span(s))")

    def count(name: str) -> float:
        return counters.get(name, 0)

    hits = count("compile_recipe_hits")
    lines.append(
        f"compile: {hits + count('compile_recipe_misses')} construction(s), "
        f"{hits} from the recipe cache, "
        f"{count('compile_seconds'):.3f} s total; "
        f"{count('compile_cyclic_groups')} cyclic group(s), "
        f"{count('compile_opaque_procs')} opaque proc(s), "
        f"{count('compile_generic_procs')} generic proc(s), "
        f"{count('compile_guarded')} guarded, "
        f"{count('compile_analysis_misses')} analysis miss(es)")
    return "\n".join(lines)

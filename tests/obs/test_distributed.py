"""repro.obs.distributed: context propagation, worker capture, fork hygiene.

The fork-inheritance test is the regression guard for the bug this module
exists to prevent: under the ``fork`` start method a worker begins life
with the parent's metric counters and tracing ring buffer, and without
:func:`reset_worker_telemetry` its first shipped delta would re-count
everything the manager ever did.
"""

import multiprocessing

import pytest

from repro.obs import tracing
from repro.obs.distributed import (
    JobTrace,
    ShardCapture,
    TraceContext,
    counter_deltas,
    fold_counter_deltas,
    reset_worker_telemetry,
    timeline_report,
)
from repro.obs.metrics import REGISTRY


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with worker-fresh telemetry state."""
    reset_worker_telemetry()
    yield
    reset_worker_telemetry()


# -- context --------------------------------------------------------------------


def test_trace_context_round_trips():
    context = TraceContext("sweep-1", parent_id=7, epoch_ns=123, capacity=10)
    assert TraceContext.from_dict(context.to_dict()) == context


def test_trace_context_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing keys"):
        TraceContext.from_dict({"trace_id": "x"})


# -- fork hygiene (the satellite regression test) -------------------------------


def _forked_child(conn):
    """Report the telemetry a forked process sees before/after the reset."""
    inherited = {
        "counters": dict(REGISTRY.counters()),
        "tracing_active": tracing.enabled(),
        "buffered": tracing.stats()["recorded"],
    }
    reset_worker_telemetry()
    clean = {
        "counters": dict(REGISTRY.counters()),
        "tracing_active": tracing.enabled(),
        "buffered": tracing.stats()["recorded"],
        "first_delta": counter_deltas(),
    }
    conn.send((inherited, clean))
    conn.close()


def test_fork_inherits_parent_telemetry_and_reset_scrubs_it():
    # Parent state a worker must never re-ship: live counters, an
    # active tracing session with buffered spans.
    REGISTRY.inc("fork_sentinel_ops", 1000)
    tracing.enable(64)
    with tracing.span("parent.work"):
        pass
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_forked_child, args=(child_conn,))
    process.start()
    child_conn.close()
    inherited, clean = parent_conn.recv()
    process.join(10)
    tracing.reset()

    # The hazard is real: fork copies everything.  (This half *documents
    # the failure mode* — without reset_worker_telemetry, `inherited` is
    # what a worker's first shipped delta would be built from.)
    assert inherited["counters"].get("fork_sentinel_ops") == 1000
    assert inherited["tracing_active"]
    assert inherited["buffered"] >= 1

    # ... and the reset scrubs all of it: the worker's first delta must
    # not re-count one unit of parent-side activity.
    assert clean["counters"] == {}
    assert not clean["tracing_active"]
    assert clean["buffered"] == 0
    assert clean["first_delta"] == {}


# -- counter deltas -------------------------------------------------------------


def test_counter_deltas_are_disjoint_increments():
    REGISTRY.inc("delta_ops", 5)
    assert counter_deltas() == {"delta_ops": 5}
    assert counter_deltas() == {}  # nothing new since the last call
    REGISTRY.inc("delta_ops", 2)
    assert counter_deltas() == {"delta_ops": 2}


def test_fold_counter_deltas_accumulates_pool_wide():
    before = REGISTRY.counters().get("folded_ops", 0)
    fold_counter_deltas({"folded_ops": 3})
    fold_counter_deltas({"folded_ops": 4})
    assert REGISTRY.counters()["folded_ops"] - before == 7


def test_fold_counter_deltas_skips_junk_and_kind_conflicts():
    REGISTRY.set_gauge("a_gauge", 1.0)
    fold_counter_deltas({"a_gauge": 5, "bad": -1, "worse": "x"})  # no raise
    assert "bad" not in REGISTRY.counters()
    fold_counter_deltas(None)  # a lost reply folds nothing, quietly


# -- ShardCapture ---------------------------------------------------------------


def test_untraced_capture_ships_only_counters_and_never_enables():
    capture = ShardCapture.begin(None)
    assert not tracing.enabled()
    REGISTRY.inc("shard_ops", 2)
    payload = capture.finish()
    assert payload["counters"] == {"shard_ops": 2}
    assert "spans" not in payload
    assert not tracing.enabled()


def test_traced_capture_ships_spans_under_worker_root():
    context = TraceContext("sweep-x", parent_id=9, epoch_ns=1, capacity=256)
    capture = ShardCapture.begin(context.to_dict())
    assert tracing.enabled()
    with tracing.span("evaluate"):
        pass
    payload = capture.finish()
    assert not tracing.enabled()
    assert payload["dropped_spans"] == 0
    names = {r["name"] for r in payload["spans"]}
    assert {"worker.shard", "evaluate"} <= names
    root = next(r for r in payload["spans"] if r["name"] == "worker.shard")
    assert root["parent"] is None  # re-parented manager-side, not here
    inner = next(r for r in payload["spans"] if r["name"] == "evaluate")
    assert inner["parent"] == root["id"]


def test_malformed_context_degrades_to_untraced():
    capture = ShardCapture.begin({"trace_id": "x"})  # missing keys
    assert capture.context is None
    assert not tracing.enabled()
    assert "spans" not in capture.finish()


def test_capture_finish_is_idempotent():
    capture = ShardCapture.begin(
        TraceContext("s", 1, epoch_ns=0).to_dict())
    assert capture.finish() is capture.finish()


def test_span_limit_truncates_and_counts():
    context = TraceContext("sweep-big", parent_id=1, epoch_ns=0,
                           capacity=1000)
    capture = ShardCapture.begin(context.to_dict())
    for _ in range(20):
        with tracing.span("tiny"):
            pass
    payload = capture.finish(span_limit=5)
    assert len(payload["spans"]) == 5
    assert payload["dropped_spans"] == 16  # 21 recorded, newest 5 kept


# -- JobTrace bounds ------------------------------------------------------------


def test_job_trace_capacity_bounds_and_counts_drops():
    trace = JobTrace("sweep-b", capacity=2, epoch_ns=0, pid=1)
    trace.add_span("a", 0, 1, parent=trace.root_id)
    trace.add_span("b", 1, 2, parent=trace.root_id)
    trace.add_span("c", 2, 3, parent=trace.root_id)  # over capacity
    assert len(trace) == 2
    assert trace.dropped == 1
    header = trace.export_records()[0]
    assert header["args"]["dropped_spans"] == 1


def test_job_trace_mark_lost_flags_the_attempt():
    trace = JobTrace("sweep-l", epoch_ns=0, pid=1)
    span_id = trace.next_id()
    trace.mark_lost(3, span_id, start_ns=10, attempt=2, reason="SIGKILL")
    trace.finish(end_ns=100)
    lost = next(r for r in trace.export_records()
                if r.get("ph") == "X" and r["name"] == "shard")
    assert lost["args"]["telemetry"] == "lost"
    assert lost["args"]["attempt"] == 2
    assert trace.lost_shards == 1


# -- timeline -------------------------------------------------------------------


def build_timeline_trace():
    trace = JobTrace("sweep-t", epoch_ns=0, pid=1)
    for shard_id, (pid, start, dur) in enumerate(
            [(2001, 10, 100), (2002, 10, 400), (2001, 120, 90)]):
        shard_span = trace.next_id()
        worker = [{"name": "worker.shard", "ph": "X", "ts": 2,
                   "dur": dur - 4, "pid": pid, "tid": 1, "id": 1,
                   "parent": None, "args": {}}]
        trace.merge_worker({"pid": pid, "epoch_ns": start + 2,
                            "spans": worker}, shard_span)
        trace.add_span("shard", start, start + dur, parent=trace.root_id,
                       span_id=shard_span, shard=shard_id, attempt=1,
                       worker_pid=pid)
    trace.finish(end_ns=500, state="done")
    return trace.export_records()


def test_timeline_report_sections():
    report = timeline_report(build_timeline_trace())
    assert "per-worker utilization" in report
    assert "pid=2001" in report and "pid=2002" in report
    assert "shard breakdown (3 attempt(s))" in report
    assert "critical path" in report
    # shard 1 takes 400ms vs median 100ms -> flagged as a straggler
    assert "straggler: shard 1" in report


def test_timeline_report_flags_retries_and_losses():
    trace = JobTrace("sweep-r", epoch_ns=0, pid=1)
    lost_span = trace.next_id()
    trace.mark_lost(0, lost_span, start_ns=5, attempt=1, reason="SIGKILL")
    trace.add_span("shard", 20, 40, parent=trace.root_id, shard=0,
                   attempt=2, worker_pid=2100)
    trace.finish(end_ns=50)
    report = timeline_report(trace.export_records())
    assert "retry: shard 0 attempt 2" in report
    assert "lost telemetry: shard 0" in report


def test_timeline_report_handles_empty_and_spanless_traces():
    assert "nothing to analyze" in timeline_report([])
    assert "nothing to analyze" in timeline_report(
        [{"name": "e", "ph": "i", "ts": 0, "pid": 1, "tid": 1,
          "id": 1, "parent": None, "args": {}}])

"""Export edge cases: empty / single-span traces, collision-safe merges,
and byte-identical merge determinism.

The merge guarantees pinned here are what make a distributed trace a
*diffable artifact*: remapping two workers' colliding local span ids must
preserve each worker's internal parentage, and exporting the same merged
state twice must produce byte-identical NDJSON.
"""

import gc
import json
import warnings

import pytest

from repro.obs import export
from repro.obs.distributed import JobTrace, remap_worker_records


def span(name, ts, dur, span_id, parent=None, pid=1000, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": 1, "id": span_id, "parent": parent, "args": args}


# -- degenerate traces ----------------------------------------------------------


def test_empty_trace_round_trips_and_is_flagged(tmp_path):
    path = tmp_path / "empty.ndjson"
    export.write_ndjson([], path)
    assert export.read_trace(path) == []
    # An empty Chrome payload is structurally *invalid* — a trace with
    # zero events is always a bug upstream, not a healthy artifact.
    problems = export.validate_chrome(export.to_chrome([]))
    assert any("zero events" in p for p in problems)
    assert "0 span(s)" in export.summarize([])


def test_single_span_trace_exports_and_summarizes(tmp_path):
    records = [span("settle", 0, 1_000_000, 1)]
    path = tmp_path / "one.ndjson"
    export.write_ndjson(records, path)
    loaded = export.read_trace(path)
    assert loaded == records
    assert export.validate_chrome(export.to_chrome(loaded)) == []
    root, fraction = export.attribution(loaded)
    assert root["name"] == "settle"
    assert fraction == 0.0  # no children: nothing attributed, no crash
    assert "settle" in export.summarize(loaded)


@pytest.mark.parametrize("name", ["trace.ndjson", "trace.json"])
def test_read_trace_closes_its_file(tmp_path, name):
    path = tmp_path / name
    records = [span("settle", 0, 1_000, 1)]
    if name.endswith(".ndjson"):
        export.write_ndjson(records, path)
    else:
        export.write_chrome(records, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        export.read_trace(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_single_span_chrome_conversion_preserves_duration(tmp_path):
    payload = export.to_chrome([span("settle", 2_000, 1_500_000, 1)])
    (event,) = payload["traceEvents"]
    assert event["ts"] == 2.0          # ns -> us
    assert event["dur"] == 1500.0


# -- merge: colliding worker-local ids ------------------------------------------


def worker_buffer(pid):
    """Two spans with local ids 1 and 2 — every worker produces these."""
    return [
        span("inner", 100, 50, 2, parent=1, pid=pid),
        span("worker.shard", 0, 200, 1, parent=None, pid=pid),
    ]


def test_merge_remaps_colliding_local_ids():
    trace = JobTrace("sweep-t", epoch_ns=1_000, pid=99)
    shard_a = trace.next_id()
    shard_b = trace.next_id()
    trace.merge_worker({"pid": 4001, "epoch_ns": 1_000,
                        "spans": worker_buffer(4001)}, shard_a)
    trace.merge_worker({"pid": 4002, "epoch_ns": 1_000,
                        "spans": worker_buffer(4002)}, shard_b)
    records = trace.export_records()
    spans = [r for r in records if r["ph"] == "X"]
    ids = [r["id"] for r in spans]
    assert len(ids) == len(set(ids)) == 4, \
        "colliding worker-local ids must remap to globally unique ids"
    # Parentage survives the remap: each worker's inner span still points
    # at its *own* root, and each root at its shard's manager span.
    for pid, shard_span in ((4001, shard_a), (4002, shard_b)):
        root = next(r for r in spans
                    if r["pid"] == pid and r["name"] == "worker.shard")
        inner = next(r for r in spans
                     if r["pid"] == pid and r["name"] == "inner")
        assert root["parent"] == shard_span
        assert inner["parent"] == root["id"]


def test_merge_points_orphaned_parents_at_the_shard_span():
    # A child of a ring-evicted span arrives with a dangling parent id.
    remapped, next_id = remap_worker_records(
        [span("orphan", 10, 5, 7, parent=12345)],
        id_start=50, parent_id=3, ts_offset_ns=1_000)
    (record,) = remapped
    assert record["id"] == 50
    assert record["parent"] == 3
    assert record["ts"] == 1_010
    assert next_id == 51


# -- merge determinism ----------------------------------------------------------


def build_merged_trace():
    trace = JobTrace("sweep-d", epoch_ns=5_000, pid=77)
    shard = trace.next_id()
    trace.merge_worker({"pid": 4100, "epoch_ns": 6_000,
                        "spans": worker_buffer(4100),
                        "dropped_spans": 0}, shard)
    trace.add_span("shard", 10, 300, parent=trace.root_id, span_id=shard,
                   shard=0, attempt=1, worker_pid=4100)
    trace.finish(end_ns=400, state="done")
    return trace


def test_merge_is_deterministic_byte_identical_ndjson(tmp_path):
    paths = []
    for name in ("a.ndjson", "b.ndjson"):
        path = tmp_path / name
        export.write_ndjson(build_merged_trace().export_records(), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes(), \
        "same inputs must merge to byte-identical NDJSON"


def test_merged_export_header_and_lanes_lead_the_file(tmp_path):
    records = build_merged_trace().export_records()
    header = records[0]
    assert header["ph"] == "M" and header["name"] == export.TRACE_META
    assert header["args"]["trace_id"] == "sweep-d"
    assert header["args"]["workers"] == [4100]
    lanes = [r for r in records if r["name"] == export.PROCESS_NAME]
    assert {lane["pid"] for lane in lanes} == {77, 4100}
    # and the whole thing is a valid, fully-labeled multi-pid trace
    assert export.validate_chrome(export.to_chrome(records)) == []


def test_unlabeled_multi_pid_trace_still_flagged():
    records = [span("a", 0, 10, 1, pid=1), span("b", 20, 10, 2, pid=2)]
    problems = export.validate_chrome(export.to_chrome(records))
    assert any("unstable pid" in p for p in problems)


def test_dropped_spans_header_feeds_summary_warning():
    records = [export.meta_record(dropped_spans=7), span("s", 0, 10, 1)]
    assert export.dropped_spans(records) == 7
    summary = export.summarize(records)
    assert "7 span(s) dropped" in summary
    assert "truncated" in summary


def test_ndjson_lines_are_sorted_key_json(tmp_path):
    # The server's /trace endpoint and write_ndjson must agree byte-for-
    # byte; both rely on sort_keys=True line encoding.
    path = tmp_path / "t.ndjson"
    records = [span("s", 0, 10, 1)]
    export.write_ndjson(records, path)
    line = path.read_text().strip()
    assert line == json.dumps(records[0], sort_keys=True)

"""Distributed telemetry through the job layer and the HTTP service.

Acceptance-criteria drivers: a 2-worker traced sweep merges into one
valid trace with correctly parented spans from >= 2 distinct worker PIDs;
pool-wide counters folded from worker replies equal an equivalent
sequential in-process run; a SIGKILLed worker's shard is flagged
``telemetry: "lost"`` instead of corrupting the merge.
"""

import os
import signal
import time
import urllib.request

import pytest

from repro.explore import DesignPoint
from repro.obs import export
from repro.obs.distributed import reset_worker_telemetry
from repro.obs.metrics import REGISTRY
from repro.serve import jobs as jobs_module
from repro.serve.client import ServiceError, SweepClient
from repro.serve.jobs import JobManager, SweepConfig
from repro.serve.server import SweepServer
from repro.serve.store import ResultStore


def make_points(capacities=(8, 12, 16, 24)):
    return [DesignPoint(design="saa2vga", binding="fifo",
                        pixel_format="gray8", frame_width=8, frame_height=4,
                        capacity=capacity) for capacity in capacities]


def run_traced_sweep(workers=2, shard_size=1, store=None, **manager_kw):
    manager = JobManager(store=store, workers=workers,
                         shard_size=shard_size, **manager_kw)
    try:
        job = manager.submit(make_points(),
                             SweepConfig(strategy="compiled", trace=True))
        assert job.wait(timeout=120)
        return job, job.trace_records()
    finally:
        manager.close()


# -- merged trace ---------------------------------------------------------------


def test_two_worker_sweep_merges_one_valid_trace_with_two_pids():
    job, records = run_traced_sweep()
    assert job.state == "done"

    worker_pids = {r["pid"] for r in records
                   if r.get("ph") == "X" and r["name"] == "worker.shard"}
    assert len(worker_pids) >= 2, \
        "shard_size=1 over 4 points on 2 workers must use both workers"
    assert os.getpid() not in worker_pids

    # Structurally valid as a Chrome trace, every pid lane labeled.
    assert export.validate_chrome(export.to_chrome(records)) == []

    # Correct parent linkage at every level: worker.shard -> shard ->
    # sweep root, and worker-internal spans under their worker.shard.
    by_id = {r["id"]: r for r in records if r.get("id") is not None}
    root = next(r for r in records
                if r.get("ph") == "X" and r["name"] == "sweep")
    assert root["parent"] is None
    worker_roots = 0
    for record in records:
        if record.get("ph") != "X":
            continue
        if record["name"] == "shard":
            assert record["parent"] == root["id"]
        elif record["name"] == "worker.shard":
            worker_roots += 1
            assert by_id[record["parent"]]["name"] == "shard"
        elif record["name"] != "sweep":
            parent = by_id.get(record["parent"])
            assert parent is not None, f"dangling parent in {record}"
            assert parent["pid"] == record["pid"], \
                "worker-internal spans must stay inside their worker's tree"
    assert worker_roots == 4  # one per shard attempt

    # >= 95% of the sweep's wall time attributed to its shard spans.
    _, fraction = export.attribution(records)
    assert fraction >= 0.95, f"only {fraction:.1%} attributed"


def test_traced_job_reports_telemetry_progress_and_span_events():
    job, records = run_traced_sweep()
    telemetry = job.progress()["telemetry"]
    assert telemetry["traced"] is True
    assert telemetry["spans"] == len(
        [r for r in records if r["ph"] in ("X", "i")])
    assert len(telemetry["worker_pids"]) >= 2
    assert telemetry["lost_shards"] == 0
    # span events ride the (streamable) job event log
    span_events = [e for e in job.events_since(0) if e["event"] == "span"]
    assert len(span_events) == 4
    assert all(e["spans"] >= 1 for e in span_events)


def test_untraced_job_records_no_trace_and_no_telemetry_block_detail():
    manager = JobManager(store=None, workers=1, shard_size=4)
    try:
        job = manager.submit(make_points((8, 16)),
                             SweepConfig(strategy="compiled"))
        assert job.wait(timeout=120)
        assert job.trace_records() is None
        assert job.progress()["telemetry"] == {"traced": False}
    finally:
        manager.close()


def test_warm_resubmission_of_traced_sweep_has_root_but_no_shards(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = SweepConfig(strategy="compiled", trace=True)
    manager = JobManager(store=store, workers=2, shard_size=1)
    try:
        first = manager.submit(make_points(), config)
        assert first.wait(timeout=120)
        second = manager.submit(make_points(), config)
        assert second.wait(timeout=30)
        records = second.trace_records()
    finally:
        manager.close()
    names = [r["name"] for r in records if r.get("ph") == "X"]
    assert names == ["sweep"], "a fully cached sweep dispatches no shards"
    assert any(r["name"] == "cache_served" for r in records
               if r.get("ph") == "i")


# -- pool-wide counters ---------------------------------------------------------


def test_pool_counters_equal_sequential_run():
    from repro.explore.runner import evaluate_point

    points = make_points()
    reset_worker_telemetry()

    before = REGISTRY.counters().get("simulator_constructions", 0)
    manager = JobManager(store=None, workers=2, shard_size=1)
    try:
        job = manager.submit(points, SweepConfig(strategy="compiled"))
        assert job.wait(timeout=120)
        assert job.progress()["failed"] == 0
    finally:
        manager.close()
    pool_delta = REGISTRY.counters().get("simulator_constructions", 0) - before

    before = REGISTRY.counters().get("simulator_constructions", 0)
    for point in points:
        evaluate_point(point, strategy="compiled")
    sequential_delta = \
        REGISTRY.counters().get("simulator_constructions", 0) - before

    assert pool_delta == sequential_delta != 0, \
        "folded worker deltas must equal the sequential in-process count"


# -- fault injection ------------------------------------------------------------


def test_killed_worker_flags_lost_telemetry_and_merge_survives(
        tmp_path, monkeypatch):
    gate = tmp_path / "gate"
    gate.touch()
    real_evaluate = jobs_module.evaluate_shard

    def gated_evaluate(point_dicts, config_dict):
        while gate.exists():
            time.sleep(0.02)
        return real_evaluate(point_dicts, config_dict)

    monkeypatch.setattr(jobs_module, "evaluate_shard", gated_evaluate)

    manager = JobManager(store=None, workers=1, shard_size=2, max_retries=1)
    try:
        job = manager.submit(make_points((8, 16)),
                             SweepConfig(strategy="compiled", trace=True))
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if any(e["event"] == "shard_started"
                   for e in job.events_since(0)):
                break
            time.sleep(0.02)
        os.kill(manager.worker_pids()[0], signal.SIGKILL)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if any(e["event"] == "shard_requeued"
                   for e in job.events_since(0)):
                break
            time.sleep(0.02)
        gate.unlink()
        assert job.wait(timeout=120)
        records = job.trace_records()
        telemetry = job.progress()["telemetry"]
    finally:
        manager.close()

    assert telemetry["lost_shards"] == 1
    shard_spans = [r for r in records
                   if r.get("ph") == "X" and r["name"] == "shard"]
    lost = [s for s in shard_spans
            if s["args"].get("telemetry") == "lost"]
    assert len(lost) == 1
    assert lost[0]["args"]["attempt"] == 1
    # The retry's attempt produced real telemetry alongside the loss.
    assert any(s["args"].get("attempt") == 2 and
               "telemetry" not in s["args"] for s in shard_spans)
    assert export.validate_chrome(export.to_chrome(records)) == []


# -- HTTP endpoint + client -----------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    with SweepServer(tmp_path / "store", workers=2, shard_size=1) as srv:
        yield srv


def submission(trace=True):
    body = {"points": [
        {"family": "design", "design": "saa2vga", "binding": "fifo",
         "pixel_format": "gray8", "frame_width": 8, "frame_height": 4,
         "capacity": capacity} for capacity in (8, 12, 16, 24)],
        "config": {"strategy": "compiled"}}
    if trace:
        body["config"]["trace"] = True
    return body


def test_trace_endpoint_serves_merged_ndjson(server, tmp_path):
    client = SweepClient(server.url)
    job_id = client.submit(submission())["id"]
    client.wait(job_id, timeout=120)

    records = client.trace(job_id)
    pids = {r["pid"] for r in records
            if r.get("ph") == "X" and r["name"] == "worker.shard"}
    assert len(pids) >= 2
    assert export.validate_chrome(export.to_chrome(records)) == []

    # The client's parse and the wire bytes agree with write_ndjson.
    raw = urllib.request.urlopen(
        f"{server.url}/sweeps/{job_id}/trace", timeout=30).read()
    path = tmp_path / "fetched.ndjson"
    export.write_ndjson(records, path)
    assert path.read_bytes() == raw


def test_trace_endpoint_404_for_untraced_job(server):
    client = SweepClient(server.url)
    job_id = client.submit(submission(trace=False))["id"]
    client.wait(job_id, timeout=120)
    with pytest.raises(ServiceError) as excinfo:
        client.trace(job_id)
    assert excinfo.value.status == 404
    assert "'trace': true" in str(excinfo.value)


def test_metrics_exposition_includes_worker_side_counters(server):
    client = SweepClient(server.url)
    before = REGISTRY.counters().get("simulator_constructions", 0)
    job_id = client.submit(submission(trace=False))["id"]
    client.wait(job_id, timeout=120)
    scrape = urllib.request.urlopen(f"{server.url}/metrics",
                                    timeout=30).read().decode()
    line = next(line for line in scrape.splitlines()
                if line.startswith("repro_simulator_constructions_total"))
    assert float(line.split()[-1]) - before >= 4, \
        "simulation happens only in workers: the construction counter " \
        "moving in this process proves worker deltas were folded in"

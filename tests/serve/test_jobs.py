"""The async job layer: sharding, incremental diffs, fault injection.

The fault-injection tests drive the acceptance criteria directly: a worker
SIGKILLed mid-shard gets its shard requeued and the sweep still completes
with results bit-identical to a single-process run; a shard that exceeds
its timeout is retried a bounded number of times and then fails *only its
own points*.
"""

import multiprocessing
import os
import signal
import threading
import time
from collections import Counter

import pytest

from repro.explore import DesignPoint, ExplorationRunner
from repro.obs.metrics import REGISTRY
from repro.serve import jobs as jobs_module
from repro.serve.jobs import (
    JobManager,
    SweepConfig,
    diff_points,
    evaluate_shard,
    split_shards,
)
from repro.serve.records import point_to_dict, result_to_record
from repro.serve.store import ResultStore


def make_points(capacities=(8, 16)):
    return [DesignPoint(design="saa2vga", binding="fifo",
                        pixel_format="gray8", frame_width=8, frame_height=4,
                        capacity=capacity) for capacity in capacities]


def wait_for_event(job, name, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events = [e for e in job.events_since(0) if e["event"] == name]
        if events:
            return events[0]
        time.sleep(0.02)
    raise AssertionError(
        f"no {name!r} event within {timeout}s; saw "
        f"{[e['event'] for e in job.events_since(0)]}")


# -- planning -------------------------------------------------------------------


def test_split_shards_is_contiguous_and_order_preserving():
    shards = split_shards(list(range(7)), 3)
    assert shards == [[0, 1, 2], [3, 4, 5], [6]]
    with pytest.raises(ValueError):
        split_shards([1], 0)


def test_diff_points_schedules_only_missing_keys(tmp_path):
    store = ResultStore(tmp_path)
    config = SweepConfig(strategy="compiled")
    points = make_points((8, 16, 8))  # one duplicate

    plan = diff_points(points, store, config)
    assert len(plan.keys) == 3
    assert len(plan.todo) == 2, "duplicates collapse onto one key"
    assert plan.cached == {}

    # Persist one of the two, diff again: only the other is scheduled.
    (key, record), = evaluate_shard([point_to_dict(points[0])],
                                    config.to_dict())
    store.put(key, record)
    plan = diff_points(points, store, config)
    assert list(plan.cached) == [key]
    assert plan.todo == [points[1]]

    # A record of another kind under the other point's key counts as absent.
    other = config.key_for(points[1])
    store.put(other, {**record, "key": other, "kind": "verify"})
    assert diff_points(points, store, config).todo == [points[1]]


def test_evaluate_shard_matches_the_in_process_runner():
    points = make_points()
    config = SweepConfig(strategy="compiled")
    shard_records = dict(evaluate_shard(
        [point_to_dict(p) for p in points], config.to_dict()))

    runner = ExplorationRunner(strategy="compiled")
    for point, result in zip(points, runner.run(points)):
        key = config.key_for(point)
        expected = result_to_record(result, key, config.record_config())
        assert shard_records[key] == expected


# -- happy path through real worker processes -----------------------------------


def test_manager_runs_a_sweep_and_warm_resubmission_is_all_cached(tmp_path):
    store = ResultStore(tmp_path)
    points = make_points((8, 16, 32))
    with JobManager(store=store, workers=2, shard_size=2) as manager:
        job = manager.submit(points, SweepConfig(strategy="compiled"))
        assert job.wait(timeout=60)
        progress = job.progress()
        assert progress["state"] == "done"
        assert progress["simulated"] == 3 and progress["cached"] == 0
        assert progress["pending"] == 0

        job2 = manager.submit(points, SweepConfig(strategy="compiled"))
        assert job2.wait(timeout=10)
        progress2 = job2.progress()
        assert progress2["cached"] == 3 and progress2["simulated"] == 0
        events2 = [e["event"] for e in job2.events_since(0)]
        assert "shard_started" not in events2, \
            "a fully cached sweep must never dispatch work"
        assert job2.ordered_records()["records"] == \
            job.ordered_records()["records"]


def test_deterministic_evaluation_errors_fail_without_retry(tmp_path):
    store = ResultStore(tmp_path)
    good = make_points((8,))[0]
    # Grid expansion would drop an unknown design family, but a point
    # constructed directly reaches the worker and raises inside evaluation.
    bad = DesignPoint(design="nonsense", binding="fifo", pixel_format="gray8",
                      frame_width=8, frame_height=4, capacity=8)
    with JobManager(store=store, workers=2, shard_size=1) as manager:
        job = manager.submit([good, bad], SweepConfig(strategy="compiled"))
        assert job.wait(timeout=60)
        progress = job.progress()
        assert progress["state"] == "failed"
        assert progress["failed"] == 1
        assert progress["simulated"] == 1, "the sibling shard still completed"
        assert manager.requeues == 0, "evaluation errors must not retry"
        payload = job.ordered_records()
        assert len(payload["failures"]) == 1
        assert "nonsense" in payload["failures"][0]["error"]
        # Failures are job state only — never persisted.
        assert store.get(payload["failures"][0]["key"]) is None


def test_in_process_manager_matches_the_worker_pool(tmp_path):
    """``workers=0`` starts no process or thread and ``submit`` returns a
    finished job, with the records, counts, failures and event kinds of
    a worker-pool run of the same grid."""
    bad = DesignPoint(design="nonsense", binding="fifo", pixel_format="gray8",
                      frame_width=8, frame_height=4, capacity=8)
    points = make_points((8, 16, 8)) + [bad]
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    dispatched = REGISTRY.value("sweep_shards_dispatched")
    with JobManager(store=ResultStore(tmp_path / "inline"),
                    workers=0) as manager:
        inline = manager.submit(points, SweepConfig())
        assert inline.done
        assert set(threading.enumerate()) <= threads
        assert set(multiprocessing.active_children()) <= children
    assert REGISTRY.value("sweep_shards_dispatched") - dispatched == 3

    with JobManager(store=ResultStore(tmp_path / "pool"),
                    workers=2) as manager:
        pooled = manager.submit(points, SweepConfig())
        assert pooled.wait(timeout=60)

    def summary(job):
        progress, outcome = job.progress(), job.ordered_records()
        return ({name: progress[name] for name in (
                    "state", "points", "total", "cached", "simulated",
                    "failed", "pending")},
                outcome["records"],
                [failure["key"] for failure in outcome["failures"]],
                Counter(event["event"] for event in job.events_since(0)))

    assert summary(inline) == summary(pooled)
    assert summary(inline)[0]["failed"] == 1
    assert "nonsense" in inline.ordered_records()["failures"][0]["error"]


# -- fault injection: worker death ----------------------------------------------


def test_killed_worker_requeues_shard_and_results_match_sequential(
        tmp_path, monkeypatch):
    gate = tmp_path / "gate"
    gate.touch()
    real_evaluate = jobs_module.evaluate_shard

    def gated_evaluate(point_dicts, config_dict):
        # Workers fork from this process, so the patch (and the gate path)
        # is inherited; evaluation stalls until the test removes the gate.
        while gate.exists():
            time.sleep(0.02)
        return real_evaluate(point_dicts, config_dict)

    monkeypatch.setattr(jobs_module, "evaluate_shard", gated_evaluate)

    store = ResultStore(tmp_path / "store")
    points = make_points((8, 16))
    manager = JobManager(store=store, workers=1, shard_size=1, max_retries=1)
    try:
        job = manager.submit(points, SweepConfig(strategy="compiled"))
        wait_for_event(job, "shard_started")
        victim = manager.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)

        requeued = wait_for_event(job, "shard_requeued")
        assert requeued["attempt"] == 1
        gate.unlink()  # let the respawned worker proceed at full speed

        assert job.wait(timeout=60)
        progress = job.progress()
        assert progress["state"] == "done"
        assert progress["failed"] == 0
        assert progress["simulated"] == 2
        assert manager.requeues >= 1
        assert victim not in manager.worker_pids(), \
            "the killed worker must have been replaced"
        service_records = job.ordered_records()["records"]
    finally:
        manager.close()

    # Bit-identical to a single-process, in-process run of the same grid.
    config = SweepConfig(strategy="compiled")
    runner = ExplorationRunner(strategy="compiled")
    expected = [
        result_to_record(result, config.key_for(point),
                         config.record_config())
        for point, result in zip(points, runner.run(points))
    ]
    assert service_records == expected


# -- fault injection: shard timeout ---------------------------------------------


def test_shard_timeout_fails_after_bounded_retries_without_poisoning_siblings(
        tmp_path, monkeypatch):
    real_evaluate = jobs_module.evaluate_shard
    SLOW_CAPACITY = 16

    def selectively_slow(point_dicts, config_dict):
        if any(data["capacity"] == SLOW_CAPACITY for data in point_dicts):
            time.sleep(120)  # guaranteed to exceed any shard timeout
        return real_evaluate(point_dicts, config_dict)

    monkeypatch.setattr(jobs_module, "evaluate_shard", selectively_slow)

    store = ResultStore(tmp_path / "store")
    fast, slow = make_points((8, SLOW_CAPACITY))
    manager = JobManager(store=store, workers=2, shard_size=1,
                         shard_timeout=0.5, max_retries=1)
    try:
        job = manager.submit([fast, slow], SweepConfig(strategy="compiled"))
        assert job.wait(timeout=60)
        progress = job.progress()
        assert progress["state"] == "failed"
        assert progress["failed"] == 1
        assert progress["simulated"] == 1, \
            "the sibling shard's result must survive the timeout next door"
        assert progress["pending"] == 0

        events = [e["event"] for e in job.events_since(0)]
        assert events.count("shard_requeued") == 1, \
            "max_retries=1 allows exactly one re-dispatch"
        assert events.count("shard_failed") == 1

        payload = job.ordered_records()
        config = SweepConfig(strategy="compiled")
        assert [r["key"] for r in payload["records"]] == \
            [config.key_for(fast)]
        assert payload["failures"][0]["key"] == config.key_for(slow)
        assert "timeout" in payload["failures"][0]["error"]
        # The failed point is never persisted; the good one is.
        assert store.get(config.key_for(fast)) is not None
        assert store.get(config.key_for(slow)) is None
    finally:
        manager.close()


def test_zero_retries_fails_on_the_first_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "evaluate_shard",
                        lambda *a: time.sleep(120))
    manager = JobManager(store=None, workers=1, shard_size=4,
                         shard_timeout=0.3, max_retries=0)
    try:
        job = manager.submit(make_points((8,)), SweepConfig())
        assert job.wait(timeout=30)
        assert job.progress()["state"] == "failed"
        events = [e["event"] for e in job.events_since(0)]
        assert "shard_requeued" not in events
    finally:
        manager.close()

"""Search jobs over the wire: POST /search + the existing follow protocol.

A :class:`SearchJob` duck-types the sweep-job surface, so the
``/sweeps/<id>``, ``/sweeps/<id>/events`` (NDJSON follow) and
``/sweeps/<id>/results`` routes serve it unchanged — only submission and
the ``GET /search`` listing are new.
"""

import pytest

from repro.serve import ServiceError, SweepClient, SweepServer
from repro.serve.jobs import JobManager
from repro.serve.store import ResultStore

BODY = {"targets": ["queue/fifo"], "budget": 4, "cycles": 120, "seed": 0}


@pytest.fixture()
def server(tmp_path):
    with SweepServer(ResultStore(tmp_path / "store"), workers=1,
                     stream_poll=0.02) as srv:
        yield srv


def test_post_search_runs_to_done_and_serves_the_report(server):
    client = SweepClient(server.url)
    submitted = client.submit_search(BODY)
    assert submitted["kind"] == "search"
    assert submitted["id"].startswith("search-")

    status = client.wait(submitted["id"], timeout=120)
    assert status["state"] == "done"
    assert status["sessions"] == 2
    assert status["coverage"] == {"queue/fifo": 100.0}

    payload = client.results(submitted["id"])
    assert payload["records"] == [] and payload.get("failures", []) == []
    report = payload["report"]
    assert report["format"] == "repro-search-v1"
    assert report["closed"] is True
    assert payload["frontier"] is None


def test_event_stream_carries_search_rounds(server):
    client = SweepClient(server.url)
    submitted = client.submit_search(BODY)
    events = list(client.events(submitted["id"], follow=True))
    names = [e["event"] for e in events]
    assert names[0] == "submitted"
    assert names[-1] == "completed"
    rounds = [e for e in events if e["event"] == "search_round"]
    assert [e["round"] for e in rounds] == [0, 1]
    assert all(e["target"] == "queue/fifo" for e in rounds)
    assert events[-1]["closed"] is True


def test_search_listing_is_separate_from_sweeps(server):
    client = SweepClient(server.url)
    submitted = client.submit_search(BODY)
    client.wait(submitted["id"], timeout=120)
    assert [job["id"] for job in client.searches()] == [submitted["id"]]
    assert client.sweeps() == []   # GET /sweeps lists sweep jobs only


def test_frontier_only_search_job(server):
    client = SweepClient(server.url)
    submitted = client.submit_search(
        {"frontier": {"budget": 2, "designs": ["saa2vga"],
                      "capacities": [4, 8]}})
    status = client.wait(submitted["id"], timeout=180)
    assert status["state"] == "done"
    payload = client.results(submitted["id"])
    assert payload["report"] is None
    frontier = payload["frontier"]
    assert frontier["format"] == "repro-frontier-v1"
    assert frontier["evaluations"] == 2


def test_bad_search_bodies_get_http_400(server):
    client = SweepClient(server.url)
    for body in ({}, {"targets": "queue/fifo"},
                 {"targets": ["queue/fifo"], "bogus": 1},
                 {"targets": ["no/such/target"]},
                 {"frontier": {"unknown_axis": []}}):
        with pytest.raises(ServiceError) as exc:
            client.submit_search(body)
        assert exc.value.status == 400, body


def test_failed_search_is_a_failed_job_not_an_http_error():
    manager = JobManager(workers=1)
    try:
        job = manager.submit_search({"targets": ["queue/sram"],
                                     "budget": 1, "cycles": 120})
        job.wait(timeout=120)
        progress = job.progress()
        assert progress["state"] == "failed"
        assert progress["kind"] == "search"
        # The report is still served: budget exhausted, not crashed.
        payload = job.ordered_records()
        assert payload["report"]["closed"] is False
    finally:
        manager.close()


def test_search_jobs_reuse_the_managers_store(tmp_path):
    """A second identical search job replays every session from the
    manager's persistent store — zero fresh simulations."""
    from repro.obs.metrics import REGISTRY

    store = ResultStore(tmp_path / "store")
    manager = JobManager(store=store, workers=1)
    try:
        first = manager.submit_search(dict(BODY))
        first.wait(timeout=120)
        assert first.progress()["state"] == "done"
        assert store.stats()["entries"] > 0

        before = REGISTRY.value("simulator_constructions")
        second = manager.submit_search(dict(BODY))
        second.wait(timeout=120)
        assert second.progress()["state"] == "done"
        assert REGISTRY.value("simulator_constructions") == before
        assert second.ordered_records()["report"]["store_hits"] == \
            second.progress()["sessions"]
    finally:
        manager.close()

"""The HTTP/JSON front end and its client.

Each test spins a real :class:`SweepServer` on an ephemeral port and talks
to it over actual sockets via :class:`SweepClient` — the same path
``python -m repro.explore --server`` uses.
"""

import json
import urllib.request

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve.client import ServiceError, SweepClient
from repro.serve.server import SweepServer
from repro.serve.store import ResultStore

SPEC = {"designs": ["saa2vga"], "bindings": ["fifo", "sram"],
        "capacities": [8], "frames": ["8x4"]}


def constructions():
    """Simulators constructed so far in this process (pool work folds in)."""
    return REGISTRY.value("simulator_constructions")


@pytest.fixture()
def server(tmp_path):
    with SweepServer(ResultStore(tmp_path / "store"), workers=2,
                     shard_size=2, stream_poll=0.02) as srv:
        yield srv


def submit_and_wait(server, body, timeout=60):
    client = SweepClient(server.url)
    job = client.submit(body)
    status = client.wait(job["id"], timeout=timeout)
    return client, job["id"], status


# -- endpoints ------------------------------------------------------------------


def test_healthz_reports_store_stats(server):
    payload = SweepClient(server.url).health()
    assert payload["ok"] is True
    assert payload["jobs"] == 0
    assert payload["store"]["entries"] == 0


def test_submit_runs_a_sweep_and_serves_results(server):
    client, job_id, status = submit_and_wait(server, {"spec": SPEC})
    assert status["state"] == "done"
    assert status["total"] == 2 and status["simulated"] == 2
    assert status["pending"] == 0

    payload = client.results(job_id)
    assert payload["state"] == "done"
    assert len(payload["records"]) == 2 and payload["failures"] == []
    bindings = [r["point"]["binding"] for r in payload["records"]]
    assert bindings == ["fifo", "sram"], "records keep submission order"

    listed = client.sweeps()
    assert [job["id"] for job in listed] == [job_id]


def test_event_stream_is_ndjson_and_follow_blocks_until_done(server):
    client, job_id, _ = submit_and_wait(server, {"spec": SPEC})
    events = list(client.events(job_id, follow=True))
    names = [e["event"] for e in events]
    assert names[0] == "submitted"
    assert names[-1] == "completed"
    assert [e["seq"] for e in events] == list(range(len(events)))
    # Raw wire format really is one JSON object per line.
    with urllib.request.urlopen(f"{server.url}/sweeps/{job_id}/events",
                                timeout=10) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in response.read().splitlines() if line]
    assert [json.loads(line)["event"] for line in lines] == names
    # ?since= resumes mid-log.
    assert [e["event"] for e in client.events(job_id, since=2)] == names[2:]


def test_follow_stream_keeps_the_event_logged_as_the_job_ends(
        server, monkeypatch):
    class RacingJob:
        """Logs ``completed`` and turns terminal right after a read, as a
        job finishing between the stream's read and its done check does."""

        def __init__(self):
            self.events = [{"seq": 0, "event": "submitted"}]
            self.done = False

        def events_since(self, index):
            batch = self.events[index:]
            if not self.done:
                self.events.append({"seq": 1, "event": "completed"})
                self.done = True
            return batch

        def wait(self, timeout=None):
            return self.done

    monkeypatch.setattr(server.manager, "job", lambda job_id: RacingJob())
    events = list(SweepClient(server.url).events("sweep-x", follow=True))
    assert [e["event"] for e in events] == ["submitted", "completed"]


def test_results_by_key_is_served_without_simulating(server):
    client, job_id, _ = submit_and_wait(server, {"spec": SPEC})
    key = client.results(job_id)["records"][0]["key"]

    before = constructions()
    record = client.result(key)
    assert record["key"] == key
    assert record["kind"] == "exploration"
    assert constructions() == before, \
        "GET /results/<key> must be a pure store read"


def test_points_submission_and_config_round_trip(server):
    body = {
        "points": [{"family": "design", "design": "saa2vga",
                    "binding": "fifo", "pixel_format": "gray8",
                    "frame_width": 8, "frame_height": 4, "capacity": 8}],
        "config": {"strategy": "compiled", "verify": False},
    }
    client, job_id, status = submit_and_wait(server, body)
    assert status["state"] == "done"
    assert status["config"]["strategy"] == "compiled"
    record = client.results(job_id)["records"][0]
    assert record["config"]["strategy"] == "compiled"


# -- the warm-cache acceptance criterion ----------------------------------------


def test_second_identical_sweep_is_fully_cache_served_with_zero_sims(server):
    client, _, first = submit_and_wait(server, {"spec": SPEC})
    assert first["simulated"] == 2

    before = constructions()
    _, job2, second = submit_and_wait(server, {"spec": SPEC})
    assert second["state"] == "done"
    assert second["cached"] == 2 and second["simulated"] == 0
    assert constructions() == before, \
        "a warm re-sweep must construct zero simulators in the service"
    events = [e["event"] for e in client.events(job2)]
    assert "shard_started" not in events, \
        "no shard may even be dispatched to a worker on a warm sweep"
    assert "cache_served" in events


def test_store_written_by_cli_mode_serves_server_sweeps(tmp_path):
    """CLI --store and the server share one key scheme (one store)."""
    from repro.explore.__main__ import main as explore_main

    store_dir = tmp_path / "store"
    argv = ["--designs", "saa2vga", "--bindings", "fifo", "sram",
            "--capacities", "8", "--frames", "8x4", "--quiet"]
    assert explore_main(argv + ["--store", str(store_dir)]) == 0

    with SweepServer(ResultStore(store_dir), workers=1) as server:
        _, _, status = submit_and_wait(server, {"spec": SPEC})
    assert status["cached"] == 2 and status["simulated"] == 0


# -- error handling -------------------------------------------------------------


def test_api_errors_are_json_with_useful_status_codes(server):
    client = SweepClient(server.url)
    with pytest.raises(ServiceError) as excinfo:
        client.status("sweep-999999")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        client.submit({"spec": {"bogus_axis": [1]}})
    assert excinfo.value.status == 400
    assert "bogus_axis" in str(excinfo.value)

    with pytest.raises(ServiceError) as excinfo:
        client.submit({"unexpected": True})
    assert excinfo.value.status == 400

    with pytest.raises(ServiceError) as excinfo:
        client.result("ff" + "0" * 62)  # valid key shape, nothing stored
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        client.result("nothex!")
    assert excinfo.value.status == 400


def test_empty_submission_is_a_400(server):
    # saa2vga never supports the linebuffer binding, so this expands to
    # zero valid points (same rule that makes the CLI exit 2).
    with pytest.raises(ServiceError) as excinfo:
        SweepClient(server.url).submit(
            {"spec": {"designs": ["saa2vga"], "bindings": ["linebuffer"]}})
    assert excinfo.value.status == 400

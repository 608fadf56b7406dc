"""``GET /metrics`` and the telemetry-enriched ``GET /healthz``.

Live-socket tests against a real :class:`SweepServer`, mirroring
``tests/serve/test_server.py``.  Counter assertions are delta-based: the
registry is process-global and other suites legitimately bump it.
"""

import json
import urllib.request

from repro.obs.metrics import REGISTRY
from repro.serve.server import SweepServer

SPEC = {"designs": ["saa2vga"], "bindings": ["fifo", "sram"],
        "capacities": [8], "frames": ["8x4"]}


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers, response.read().decode("utf-8")


def _get_json(url: str) -> dict:
    return json.loads(_get(url)[1])


def _submit(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"{url}/sweeps", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def test_metrics_serves_prometheus_exposition(tmp_path):
    with SweepServer(tmp_path / "store", workers=1) as server:
        _submit(server.url, {"spec": SPEC})
        headers, text = _get(f"{server.url}/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        # the service's own activity is visible through the registry
        assert "# TYPE repro_sweep_jobs_submitted_total counter" in text
        assert "# TYPE repro_store_entries gauge" in text
        assert "repro_sweep_jobs 1" in text
        assert "repro_uptime_seconds" in text


def test_metrics_counters_track_service_activity(tmp_path):
    with SweepServer(tmp_path / "store", workers=1) as server:
        before_jobs = REGISTRY.value("sweep_jobs_submitted")
        before_shards = REGISTRY.value("sweep_shards_dispatched")
        job = _submit(server.url, {"spec": SPEC})
        status = _wait_done(server, job["id"])
        assert status["state"] == "done"
        assert REGISTRY.value("sweep_jobs_submitted") == before_jobs + 1
        assert REGISTRY.value("sweep_shards_dispatched") >= before_shards + 1
        hist = REGISTRY.histogram("sweep_shard_seconds")
        assert hist is not None and hist["count"] >= 1


def test_metrics_match_healthz_counters(tmp_path):
    """The same registry serves both endpoints — scrape agreement."""
    with SweepServer(tmp_path / "store", workers=1) as server:
        job = _submit(server.url, {"spec": SPEC})
        _wait_done(server, job["id"])
        payload = _get_json(f"{server.url}/healthz")
        _, text = _get(f"{server.url}/metrics")
        # NB: simulator_constructions lives in the *worker* processes'
        # registries, so only server-side counters can agree here.
        for name in ("sweep_jobs_submitted", "store_puts",
                     "sweep_shards_dispatched"):
            assert name in payload["counters"], name
            assert f"repro_{name}_total {payload['counters'][name]}" in text


def test_healthz_reports_queue_depth_and_counters(tmp_path):
    with SweepServer(tmp_path / "store", workers=1) as server:
        payload = _get_json(f"{server.url}/healthz")
        # pre-PR keys survive...
        assert payload["ok"] is True
        assert payload["jobs"] == 0
        assert payload["store"]["entries"] == 0
        # ...and the telemetry additions ride along
        assert payload["queue_depth"] == 0
        assert isinstance(payload["counters"], dict)


def test_job_status_carries_shard_timing(tmp_path):
    with SweepServer(tmp_path / "store", workers=1) as server:
        job = _submit(server.url, {"spec": SPEC})
        status = _wait_done(server, job["id"])
        timing = status["timing"]
        assert timing["elapsed_s"] >= 0
        shards = timing["shards"]
        assert shards["count"] >= 1
        assert shards["total_s"] > 0
        assert shards["max_s"] >= shards["mean_s"] > 0

        # warm re-submission: all cached, no shard ever dispatched
        job2 = _submit(server.url, {"spec": SPEC})
        status2 = _wait_done(server, job2["id"])
        assert status2["cached"] == status2["total"]
        assert status2["timing"]["shards"]["count"] == 0


def _wait_done(server: SweepServer, job_id: str) -> dict:
    job = server.manager.job(job_id)
    assert job is not None and job.wait(timeout=120)
    return job.progress()

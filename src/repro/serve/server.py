"""Thin stdlib HTTP/JSON front end over the job manager and the store.

No third-party dependencies: a :class:`ThreadingHTTPServer` whose handler
translates HTTP to :class:`~repro.serve.jobs.JobManager` calls.  The API
(full reference with curl examples in ``docs/exploration.md``):

=======  ==========================  ===========================================
Method   Path                        Meaning
=======  ==========================  ===========================================
POST     ``/sweeps``                 Submit a sweep; body is JSON with a
                                     ``"spec"`` dict (sweep-spec axes, see
                                     :mod:`repro.explore.spec`) and/or a
                                     ``"points"`` record list, plus an optional
                                     ``"config"`` (:class:`SweepConfig` fields).
                                     Returns 202 with the job's status payload.
GET      ``/sweeps``                 Status payloads of every job.
GET      ``/sweeps/<id>``            One job's status: state and progress
                                     counts (total/cached/simulated/failed/
                                     pending).
GET      ``/sweeps/<id>/events``     The job's event log as NDJSON; with
                                     ``?follow=1`` the response streams until
                                     the job reaches a terminal state.
GET      ``/sweeps/<id>/results``    Result records + failures in point order.
GET      ``/sweeps/<id>/trace``      The merged distributed trace as NDJSON
                                     (jobs submitted with config
                                     ``{"trace": true}``): manager spans plus
                                     every worker's spans, re-parented and
                                     remapped onto one sweep-wide timeline.
                                     Feed it to ``python -m repro.obs
                                     timeline`` / ``summarize``.
POST     ``/search``                 Submit a coverage-directed search job
                                     (:mod:`repro.search`); body carries
                                     ``"targets"`` plus optional budget/seed
                                     knobs and/or a ``"frontier"`` axes dict.
                                     Returns 202; progress, the NDJSON event
                                     stream (one event per search round) and
                                     the final report/frontier artifacts ride
                                     the ``/sweeps/<id>/...`` routes above.
GET      ``/search``                 Status payloads of search jobs only.
GET      ``/results/<key>``          One record straight from the store — a
                                     pure file read, no simulator is ever
                                     constructed on this path.
GET      ``/healthz``                Liveness + store statistics, process
                                     counter snapshot and job-queue depth.
GET      ``/metrics``                Prometheus text exposition of the
                                     process-global telemetry registry
                                     (``repro.obs.metrics``): counters,
                                     gauges and histograms.
=======  ==========================  ===========================================

Construct a :class:`SweepServer` programmatically (tests do) or run
``python -m repro.serve --store DIR``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..obs.metrics import REGISTRY, render_prometheus
from .jobs import JobManager, SweepConfig
from .records import point_from_dict
from .store import ResultStore, StoreError


class ApiError(Exception):
    """An HTTP-visible request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _expand_submission(body: dict):
    """The point list a ``POST /sweeps`` body asks for, in order."""
    if not isinstance(body, dict):
        raise ApiError(400, "request body must be a JSON object")
    unknown = set(body) - {"spec", "points", "config"}
    if unknown:
        raise ApiError(400, f"unknown request keys: {sorted(unknown)}")
    points = []
    if "spec" in body:
        from ..explore.spec import expand_spec

        try:
            design_points, pipeline_points = expand_spec(body["spec"])
        except ValueError as exc:
            raise ApiError(400, f"bad sweep spec: {exc}") from None
        points.extend(design_points)
        points.extend(pipeline_points)
    if "points" in body:
        if not isinstance(body["points"], list):
            raise ApiError(400, "'points' must be a list of point records")
        try:
            points.extend(point_from_dict(data) for data in body["points"])
        except (TypeError, ValueError) as exc:
            raise ApiError(400, f"bad point record: {exc}") from None
    if not points:
        raise ApiError(400, "the submission expands to zero valid points "
                            "(provide 'spec' axes and/or 'points')")
    try:
        config = SweepConfig.from_dict(body.get("config", {}))
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"bad sweep config: {exc}") from None
    return points, config


class _Handler(BaseHTTPRequestHandler):
    """One request; all state lives on ``self.server`` (the SweepServer)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.owner.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ApiError(400, "empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}"
                           ) from None

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> dict:
        if "?" not in self.path:
            return {}
        query = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if "=" in pair:
                name, value = pair.split("=", 1)
                query[name] = value
        return query

    # -- methods -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._get(self._route())
        except ApiError as exc:
            self._error(exc.status, exc.message)
        except BrokenPipeError:
            pass  # client hung up mid-stream
        except Exception as exc:  # never kill the serving thread
            self._error(500, f"internal error: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._post(self._route())
        except ApiError as exc:
            self._error(exc.status, exc.message)
        except Exception as exc:
            self._error(500, f"internal error: {exc}")

    def _get(self, route: Tuple[str, ...]) -> None:
        owner = self.server.owner
        if route == ("healthz",):
            self._send_json({"ok": True, "store": owner.store.stats(),
                             "jobs": len(owner.manager.jobs()),
                             "queue_depth": owner.manager.queue_depth(),
                             "counters": REGISTRY.counters()})
        elif route == ("metrics",):
            self._send_metrics(owner)
        elif route in (("sweeps",), ("search",)):
            # Each listing filters to its own kind; the per-job
            # /sweeps/<id>/... routes still serve both kinds.
            progresses = [job.progress() for job in owner.manager.jobs()]
            want_search = route == ("search",)
            self._send_json(
                {"jobs": [p for p in progresses
                          if (p.get("kind") == "search") == want_search]})
        elif len(route) == 2 and route[0] == "sweeps":
            self._send_json(self._job(route[1]).progress())
        elif len(route) == 3 and route[0] == "sweeps" and route[2] == "results":
            job = self._job(route[1])
            payload = job.ordered_records()
            payload["state"] = job.state
            self._send_json(payload)
        elif len(route) == 3 and route[0] == "sweeps" and route[2] == "events":
            self._stream_events(self._job(route[1]))
        elif len(route) == 3 and route[0] == "sweeps" and route[2] == "trace":
            self._send_trace(self._job(route[1]))
        elif len(route) == 2 and route[0] == "results":
            try:
                record = owner.store.get(route[1])
            except StoreError as exc:
                raise ApiError(400, str(exc)) from None
            if record is None:
                raise ApiError(404, f"no stored result for key {route[1]}")
            self._send_json(record)
        else:
            raise ApiError(404, f"unknown path {self.path!r}")

    def _post(self, route: Tuple[str, ...]) -> None:
        if route == ("sweeps",):
            points, config = _expand_submission(self._read_body())
            job = self.server.owner.manager.submit(points, config)
            self._send_json(job.progress(), status=202)
        elif route == ("search",):
            body = self._read_body()
            if not isinstance(body, dict):
                raise ApiError(400, "request body must be a JSON object")
            try:
                job = self.server.owner.manager.submit_search(body)
            except ValueError as exc:
                raise ApiError(400, f"bad search request: {exc}") from None
            self._send_json(job.progress(), status=202)
        else:
            raise ApiError(404, f"unknown path {self.path!r}")

    # -- helpers -----------------------------------------------------------

    def _send_metrics(self, owner: "SweepServer") -> None:
        """Prometheus text exposition, with scrape-time service gauges.

        Counters accumulate as the service works; the point-in-time facts
        (store occupancy, queue depth, job count, uptime) are refreshed as
        gauges on every scrape so the exposition is self-contained.
        """
        REGISTRY.set_gauge("store_entries", len(owner.store))
        REGISTRY.set_gauge("sweep_queue_depth", owner.manager.queue_depth())
        REGISTRY.set_gauge("sweep_jobs", len(owner.manager.jobs()))
        REGISTRY.set_gauge("uptime_seconds",
                           round(time.time() - owner._started, 3))
        body = render_prometheus(REGISTRY).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _job(self, job_id: str):
        job = self.server.owner.manager.job(job_id)
        if job is None:
            raise ApiError(404, f"unknown sweep {job_id!r}")
        return job

    def _send_trace(self, job) -> None:
        """The merged distributed trace as NDJSON (traced jobs only)."""
        records = job.trace_records()
        if records is None:
            raise ApiError(
                404, f"sweep {job.id!r} was not traced — submit with "
                     "config {'trace': true} to capture a distributed trace")
        body = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in records).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(self, job) -> None:
        """NDJSON event stream; ``?follow=1`` tails until the job ends."""
        query = self._query()
        follow = query.get("follow", "0") not in ("0", "false", "")
        index = int(query.get("since", 0))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Chunked would need framing; close-delimited is simpler for curl.
        self.send_header("Connection", "close")
        self.end_headers()
        while True:
            # Read the terminal flag first: the "completed" event is logged
            # under the same lock as the state change, so it is then in
            # this batch rather than lost between the read and the check.
            done = job.done
            events = job.events_since(index)
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode())
            index += len(events)
            if events:
                self.wfile.flush()
            if not follow or done:
                return
            job.wait(timeout=self.server.owner.stream_poll)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    owner: "SweepServer"


class SweepServer:
    """The exploration service: store + job manager + HTTP front end.

    ``port=0`` (the default) binds an ephemeral port; read :attr:`url`
    after construction.  Use as a context manager or call
    :meth:`start` / :meth:`close` explicitly.  ``manager_options``
    (``workers``, ``shard_size``, ``shard_timeout``, ``max_retries``) go
    to the :class:`JobManager` unchanged.
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, stream_poll: float = 0.1,
                 **manager_options) -> None:
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(store)
        self.manager = JobManager(store=self.store, **manager_options)
        self.verbose = verbose
        self.stream_poll = stream_poll
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None
        self._started = time.time()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SweepServer":
        """Serve requests on a background thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="sweep-http",
                daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``python -m repro.serve`` path)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        # ``shutdown()`` waits for a serve loop on another thread to stop.
        # Only ``start()`` runs one: a blocking ``serve_forever()`` has
        # returned by the time its caller closes, and one that never ran
        # (a SIGTERM just before it) would make ``shutdown()`` wait forever.
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.manager.close()

    def __enter__(self) -> "SweepServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

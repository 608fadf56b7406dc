"""urllib client for the sweep service.

``python -m repro.explore --server URL`` is built on this class, and so
can any script be — the client speaks only the HTTP/JSON API, so it works
against a server in another process, container or machine::

    from repro.serve.client import SweepClient

    client = SweepClient("http://127.0.0.1:8377")
    submitted = client.submit({"spec": {"designs": ["saa2vga"],
                                        "capacities": [16, 32]}})
    status = client.wait(submitted["id"])
    payload = client.results(submitted["id"])

Responses are the server's JSON payloads as plain dicts; HTTP-level
failures raise :class:`ServiceError` carrying the server's error message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional


class ServiceError(RuntimeError):
    """The service answered with an error (or could not be reached)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class SweepClient:
    """Client for one sweep server.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running ``python -m repro.serve``.
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- HTTP plumbing -----------------------------------------------------

    def _request(self, path: str, payload: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            raise ServiceError(
                f"{url}: HTTP {exc.code}" + (f" — {detail}" if detail else ""),
                status=exc.code) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"{url}: {exc.reason}") from None

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("/healthz")

    def submit(self, body: dict) -> dict:
        """``POST /sweeps``; body carries ``spec``/``points``/``config``."""
        return self._request("/sweeps", payload=body)

    def submit_search(self, body: dict) -> dict:
        """``POST /search``; body carries ``targets`` (+ budget knobs)
        and/or a ``frontier`` axes dict.  Progress, events and the final
        report are then served by the ``/sweeps/<id>/...`` routes —
        :meth:`status`, :meth:`events`, :meth:`results`, :meth:`wait`
        work on search jobs unchanged."""
        return self._request("/search", payload=body)

    def searches(self) -> List[dict]:
        """Status payloads of search jobs only (``GET /search``)."""
        return self._request("/search")["jobs"]

    def sweeps(self) -> List[dict]:
        return self._request("/sweeps")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request(f"/sweeps/{job_id}")

    def results(self, job_id: str) -> dict:
        """Records + failures of a sweep, in submission point order."""
        return self._request(f"/sweeps/{job_id}/results")

    def result(self, key: str) -> dict:
        """One stored record by key (``GET /results/<key>``)."""
        return self._request(f"/results/{key}")

    def trace(self, job_id: str) -> List[dict]:
        """The sweep's merged distributed trace as raw records.

        ``GET /sweeps/<id>/trace`` — only jobs submitted with config
        ``{"trace": true}`` have one (404/:class:`ServiceError`
        otherwise).  Write the records with
        :func:`repro.obs.export.write_trace` to get the same NDJSON the
        server serves, byte for byte.
        """
        url = f"{self.base_url}/sweeps/{job_id}/trace"
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return [json.loads(line) for line in
                        response.read().decode("utf-8").splitlines() if line]
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            raise ServiceError(
                f"{url}: HTTP {exc.code}" + (f" — {detail}" if detail else ""),
                status=exc.code) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"{url}: {exc.reason}") from None

    def events(self, job_id: str, since: int = 0,
               follow: bool = False) -> Iterator[dict]:
        """Yield the job's event log as parsed NDJSON lines.

        With ``follow=True`` the iterator blocks until the job reaches a
        terminal state (the server closes the stream at that point).
        """
        url = (f"{self.base_url}/sweeps/{job_id}/events"
               f"?since={since}&follow={'1' if follow else '0'}")
        request = urllib.request.Request(url)
        timeout = None if follow else self.timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.URLError as exc:
            raise ServiceError(f"{url}: {exc}") from None

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.2) -> Dict[str, object]:
        """Poll until the sweep is ``done``/``failed``; returns the status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"sweep {job_id} still {status['state']} after "
                    f"{timeout:.1f}s")
            time.sleep(poll)

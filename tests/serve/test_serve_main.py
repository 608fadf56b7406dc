"""``python -m repro.serve`` as a process: a plain ``kill`` shuts it down.

SIGTERM (what ``kill`` and CI's shutdown step send) must take the same
path as Ctrl-C and close the worker pool, not leave the workers running
after the server is gone.  The workers are found through ``/proc``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="needs /proc to list child processes")


def _stat_fields(pid):
    """The /proc/<pid>/stat fields after the command name, or ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def children(pid):
    """PIDs whose parent is ``pid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def alive(pid):
    """Still running: neither gone nor a zombie waiting to be reaped."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def test_sigterm_stops_every_worker(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(tmp_path / "server.log", "w") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--store", str(tmp_path / "store"), "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=log, text=True, env=env)
    workers = []
    try:
        assert "serving sweeps on" in server.stdout.readline()
        workers = children(server.pid)
        assert len(workers) == 2, workers
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)], \
            "workers outlived the server after SIGTERM"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        server.stdout.close()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)

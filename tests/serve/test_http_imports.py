"""The HTTP stack loads only when something serves or calls HTTP.

``http.server``, ``urllib.request`` and ``ssl`` cost megabytes of every
process's resident memory, but only ``python -m repro.serve`` and
``explore --server`` use them.  Each check runs in a fresh interpreter,
because this test process has long since imported the server.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
HTTP_MODULES = ("http.server", "urllib.request", "ssl")

#: Entry points that never speak HTTP themselves.
NON_HTTP = ("repro.explore", "repro.serve.jobs", "repro.serve.__main__",
            "repro.verify.__main__", "repro.search.driver")


def loaded_http_modules(*modules: str) -> list:
    """The HTTP modules a fresh interpreter holds after importing ``modules``."""
    code = (f"import sys, {', '.join(modules)}\n"
            f"print(' '.join(m for m in {HTTP_MODULES!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_only_the_server_loads_the_http_stack():
    assert loaded_http_modules(*NON_HTTP) == []
    assert "http.server" in loaded_http_modules("repro.serve.server")

"""Process-wide instrumentation counters — compat shim over ``repro.obs``.

Historically this module owned a tiny named-counter dict that the
simulator constructors bump and that tests (and the service's status
endpoints) read.  That registry has been absorbed by the unified
telemetry layer: every function here now delegates to the process-global
:data:`repro.obs.metrics.REGISTRY`, so the counters this module reports
and the ones ``GET /metrics`` / ``GET /healthz`` serve are **the same
storage** — bump here, scrape there.

The public contract is unchanged and still what the zero-simulation
assertions are written against::

    before = snapshot()
    runner.run(points)          # should be fully cache-served
    assert delta(before)["simulator_constructions"] == 0

Unlike the original dict (which leaned on the GIL's int-add atomicity),
the backing registry takes a real :class:`threading.Lock` per mutation —
``ThreadingHTTPServer`` handler threads and the job manager's pump
thread bump these counters concurrently.  Worker *processes* still count
in their own registry (the job layer aggregates shard counts explicitly).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.metrics import REGISTRY

#: Names bumped by the RTL layer itself.  Other layers may register their
#: own names freely — the registry is open.
SIMULATOR_CONSTRUCTIONS = "simulator_constructions"


def bump(name: str, amount: int = 1) -> int:
    """Increment ``name`` and return its new value."""
    return int(REGISTRY.inc(name, amount))


def value(name: str) -> int:
    """Current value of ``name`` (0 if never bumped)."""
    return int(REGISTRY.value(name))


def snapshot() -> Dict[str, int]:
    """Copy of every (unlabeled) counter, for later :func:`delta` comparison."""
    return REGISTRY.counters()


def delta(before: Dict[str, int],
          after: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Per-counter difference between two snapshots (``after`` = now)."""
    if after is None:
        after = snapshot()
    names = set(before) | set(after)
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


def simulations_since(before: Dict[str, int]) -> int:
    """Total simulator constructions since ``before``.

    The acceptance metric of the persistent-store layer: a warm re-sweep
    must leave this at exactly 0.
    """
    return delta(before).get(SIMULATOR_CONSTRUCTIONS, 0)

"""Unified telemetry: metrics registry, structured tracing, profiling.

The observation layer for the whole stack (simulate → compile → sweep →
serve), with three pillars:

``repro.obs.metrics``
    A thread-safe process-wide registry of counters, gauges and labeled
    histogram series.  ``Simulator`` construction, the store, the job
    manager and the explore runner all count into its :data:`REGISTRY`,
    which feeds the sweep server's Prometheus-style ``GET /metrics``
    endpoint.

``repro.obs.tracing``
    Nestable spans (``with obs.span("settle", strategy=...)``) recorded
    into an in-process ring buffer, exportable as NDJSON or
    Perfetto-loadable Chrome trace-event JSON (:mod:`repro.obs.export`).

``repro.obs.profile``
    Opt-in per-settle breakdowns (time per strategy, convergence
    iteration counts, fallback hits) behind the ``--profile`` CLI flags.

Everything is **off by default**, and the disabled paths are guaranteed
allocation-free on the simulator hot loop (``tests/obs/test_overhead.py``
and the ``compiled-obs-off`` benchmark floor in
``benchmarks/check_regression.py`` enforce it).  :func:`recording` is the
``--trace``/``--profile`` lifecycle every CLI wraps its run in.

``python -m repro.obs`` summarizes, converts and validates trace files;
the operator guide is ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from . import export, metrics, profile, tracing
from .metrics import REGISTRY, MetricsRegistry, render_prometheus
from .profile import SettleProfiler
from .tracing import add_event, enabled, span


@contextlib.contextmanager
def recording(trace_path: Optional[str] = None, profiling: bool = False,
              quiet: bool = False) -> Iterator[None]:
    """Record the body's telemetry: a CLI's ``--trace PATH``/``--profile``.

    Installs a profiler when ``profiling`` and starts tracing when
    ``trace_path`` is given.  On the way out — also when the body raises
    — both are switched off again, the trace is written to
    ``trace_path`` (led by a ``trace.meta`` header declaring ring-buffer
    overflow; the extension picks the format) and the profile table is
    printed.  ``quiet`` suppresses the printed lines, not the file.
    """
    profiler = profile.enable() if profiling else None
    if trace_path is not None:
        tracing.enable()
    try:
        yield
    finally:
        if trace_path is not None:
            tracing.disable()
            # stats() survives drain(): read the overflow count first so
            # the header declares how truncated the trace is.
            dropped = tracing.stats()["dropped"]
            records = tracing.drain()
            records.insert(0, export.meta_record(dropped_spans=dropped))
            fmt = export.write_trace(records, trace_path)
            if not quiet:
                print(f"trace: {len(records)} record(s) written to "
                      f"{trace_path} ({fmt})")
        if profiler is not None:
            profile.disable()
            if not quiet:
                print(profiler.report())


__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "SettleProfiler",
    "add_event",
    "enabled",
    "export",
    "metrics",
    "profile",
    "recording",
    "render_prometheus",
    "span",
    "tracing",
]

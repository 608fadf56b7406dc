"""Unified telemetry: metrics registry and structured tracing.

The observation layer for the whole stack (simulate → compile → sweep →
serve), with two pillars:

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

The ``--profile`` CLI flags are a view over both: the run's phase table,
kernel rates from its ``step``/``run_until`` spans and a compile line from
its counter deltas (:func:`repro.obs.export.profile_report`).

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

from . import export, metrics, tracing
from .metrics import REGISTRY, MetricsRegistry, render_prometheus
from .tracing import add_event, enabled, span


@contextlib.contextmanager
def recording(trace_path: Optional[str] = None, profiling: bool = False,
              quiet: bool = False) -> Iterator[None]:
    """Record the body's telemetry: a CLI's ``--trace PATH``/``--profile``.

    Starts tracing when ``trace_path`` is given or ``profiling``, and
    when profiling also snapshots the registry's counters.  On the way
    out — also when the body raises — tracing is switched off again, the
    trace is written to ``trace_path`` (led by a ``trace.meta`` header
    declaring ring-buffer overflow; the extension picks the format) and,
    when profiling, :func:`export.profile_report` of the recorded spans
    and the counter deltas is printed.  ``quiet`` suppresses the printed
    lines, not the file.
    """
    if trace_path is None and not profiling:
        yield
        return
    counters = REGISTRY.counters() if profiling else {}
    tracing.enable()
    try:
        yield
    finally:
        tracing.disable()
        # stats() survives drain(): read the overflow count first so
        # the header declares how truncated the trace is.
        dropped = tracing.stats()["dropped"]
        records = tracing.drain()
        records.insert(0, export.meta_record(dropped_spans=dropped))
        if trace_path is not None:
            fmt = export.write_trace(records, trace_path)
            if not quiet:
                print(f"trace: {len(records)} record(s) written to "
                      f"{trace_path} ({fmt})")
        if profiling and not quiet:
            deltas = {name: value - counters.get(name, 0)
                      for name, value in REGISTRY.counters().items()}
            print(export.profile_report(records, deltas))


__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "add_event",
    "enabled",
    "export",
    "metrics",
    "recording",
    "render_prometheus",
    "span",
    "tracing",
]

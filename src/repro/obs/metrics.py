"""Thread-safe process-wide metrics registry.

Three metric kinds, all supporting labeled series:

* **counter** — monotonic; :meth:`MetricsRegistry.inc`.
* **gauge** — last-write-wins; :meth:`MetricsRegistry.set_gauge`.
* **histogram** — bucketed observations with sum and count;
  :meth:`MetricsRegistry.observe`.

One process-global :data:`REGISTRY` is the default sink: the
simulator's ``simulator_constructions`` counter, the store's hit/miss
accounting, the job manager's shard telemetry and the exploration
runner's cache statistics all land here, and the sweep server renders
the whole registry as Prometheus text exposition on ``GET /metrics``
(:func:`render_prometheus`).

Every mutation takes one :class:`threading.Lock` — ``ThreadingHTTPServer``
handler threads, the job manager's pump thread and test threads all write
concurrently, and "the GIL makes int-add atomic" stopped being a
load-bearing guarantee the moment read-modify-write sequences (histogram
bucket + sum + count) entered the picture.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram buckets (seconds): log-spaced from 100us to ~100s,
#: sized for the latencies this stack actually produces (settle calls,
#: store I/O, shard evaluations).
DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 10.0, 30.0, 60.0, 120.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """One (name, labels) series of one metric kind."""

    __slots__ = ("kind", "value", "buckets", "bucket_counts", "sum", "count")

    def __init__(self, kind: str,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.kind = kind
        self.value = 0.0
        if kind == HISTOGRAM:
            self.buckets = buckets or DEFAULT_BUCKETS
            self.bucket_counts = [0] * len(self.buckets)
            self.sum = 0.0
            self.count = 0


class MetricsRegistry:
    """Named, labeled metric series behind one lock.

    Metric kinds are fixed at first use: incrementing a name that was
    previously observed as a histogram raises — silent kind drift would
    corrupt the exposition format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> (kind, {label_key -> _Series})
        self._metrics: Dict[str, Tuple[str, Dict[LabelKey, _Series]]] = {}

    # -- write side --------------------------------------------------------

    def _series(self, name: str, kind: str,
                labels: Dict[str, object]) -> _Series:
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {entry[0]}, not a {kind}")
        key = _label_key(labels)
        series = entry[1].get(key)
        if series is None:
            series = entry[1][key] = _Series(kind)
        return series

    def inc(self, name: str, amount: float = 1, **labels) -> float:
        """Increment a counter series; returns the new value."""
        with self._lock:
            series = self._series(name, COUNTER, labels)
            series.value += amount
            return series.value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to ``value``."""
        with self._lock:
            self._series(name, GAUGE, labels).value = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        with self._lock:
            series = self._series(name, HISTOGRAM, labels)
            series.sum += value
            series.count += 1
            for i, bound in enumerate(series.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    break

    # -- read side ---------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0 if never written)."""
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None:
                return 0
            series = entry[1].get(_label_key(labels))
            if series is None or series.kind == HISTOGRAM:
                return 0
            return series.value

    def histogram(self, name: str, **labels) -> Optional[Dict[str, object]]:
        """Snapshot of one histogram series, or ``None``."""
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None or entry[0] != HISTOGRAM:
                return None
            series = entry[1].get(_label_key(labels))
            if series is None:
                return None
            return {
                "buckets": list(zip(series.buckets, series.bucket_counts)),
                "sum": series.sum,
                "count": series.count,
            }

    def counters(self) -> Dict[str, float]:
        """Flat snapshot of every *unlabeled* counter series.

        This is the view ``GET /healthz`` exposes and the worker pool's
        counter deltas are computed from.
        """
        with self._lock:
            out = {}
            for name, (kind, series_map) in self._metrics.items():
                if kind != COUNTER:
                    continue
                series = series_map.get(())
                if series is not None:
                    out[name] = (int(series.value)
                                 if series.value == int(series.value)
                                 else series.value)
            return out

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Structured snapshot of the whole registry (all kinds, all labels)."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name, (kind, series_map) in self._metrics.items():
                rendered = {}
                for key, series in series_map.items():
                    label_str = ",".join(f"{k}={v}" for k, v in key)
                    if kind == HISTOGRAM:
                        rendered[label_str] = {"sum": series.sum,
                                               "count": series.count}
                    else:
                        rendered[label_str] = series.value
                out[name] = {"kind": kind, "series": rendered}
            return out

    def reset(self) -> None:
        """Drop every series (tests only — production counters are monotonic)."""
        with self._lock:
            self._metrics.clear()


#: The process-global default registry.
REGISTRY = MetricsRegistry()


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_labels(key: LabelKey, extra: Iterable[Tuple[str, str]] = ()
                   ) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", r"\\").replace('"', r"\""))
        for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(registry: Optional[MetricsRegistry] = None,
                      prefix: str = "repro_") -> str:
    """Prometheus text exposition (format 0.0.4) of a registry.

    Counter names get the conventional ``_total`` suffix; histograms
    render the standard ``_bucket``/``_sum``/``_count`` triple with
    cumulative ``le`` buckets (including ``+Inf``).
    """
    registry = registry if registry is not None else REGISTRY
    with registry._lock:
        lines: List[str] = []
        for name in sorted(registry._metrics):
            kind, series_map = registry._metrics[name]
            metric = prefix + name + ("_total" if kind == COUNTER else "")
            lines.append(f"# TYPE {metric} {kind}")
            for key in sorted(series_map):
                series = series_map[key]
                if kind == HISTOGRAM:
                    base = prefix + name
                    cumulative = 0
                    for bound, count in zip(series.buckets,
                                            series.bucket_counts):
                        cumulative += count
                        labels = _format_labels(key, [("le", repr(bound))])
                        lines.append(f"{base}_bucket{labels} {cumulative}")
                    labels = _format_labels(key, [("le", "+Inf")])
                    lines.append(f"{base}_bucket{labels} {series.count}")
                    lines.append(f"{base}_sum{_format_labels(key)} "
                                 f"{_format_value(series.sum)}")
                    lines.append(f"{base}_count{_format_labels(key)} "
                                 f"{series.count}")
                else:
                    lines.append(f"{metric}{_format_labels(key)} "
                                 f"{_format_value(series.value)}")
        return "\n".join(lines) + "\n"

"""In-memory span recorder for the benchmark's traced runs, and the
statistics taken over spans and samples.

The benchmark places every span itself, around its own calls into a
layer's public functions; nothing inside ``src/`` is instrumented.  A
disabled recorder hands out one shared no-op context manager, so the
untraced and traced runs execute the same benchmark code.
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional

_NULL = contextlib.nullcontext()


class _Active:
    """One open span: its record is appended on entry, timed on exit."""

    __slots__ = ("tracer", "name", "args", "start", "index")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append({"name": self.name, "parent": parent,
                             "start": 0.0, "end": 0.0, "args": self.args})
        tracer._stack.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        record = tracer.spans[self.index]
        record["start"] = self.start - tracer.origin
        record["end"] = end - tracer.origin


class Tracer:
    """Collects ``{name, parent, start, end, args}`` span records.

    ``parent`` is the index of the enclosing span in :attr:`spans` (or
    ``None``); times are seconds since the tracer was created.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, **args):
        """Context manager timing one call, tagged with ``args``."""
        if not self.enabled:
            return _NULL
        return _Active(self, name, args)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(0, int(rank) - 1)]


def leaf_spans(spans: List[dict]) -> List[dict]:
    """Spans that enclose no other span."""
    parents = {span["parent"] for span in spans}
    return [span for index, span in enumerate(spans) if index not in parents]


def by_name(spans: List[dict], name: str,
            design: Optional[str] = None) -> List[dict]:
    return [span for span in spans if span["name"] == name
            and (design is None or span["args"].get("design") == design)]


def durations(spans: List[dict]) -> List[float]:
    return [span["end"] - span["start"] for span in spans]


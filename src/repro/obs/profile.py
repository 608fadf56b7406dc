"""Opt-in settle profiling: where simulation wall time actually goes.

Enabled via :func:`enable` (the ``--profile`` flag on the explore/verify
CLIs), a process-global :class:`SettleProfiler` accumulates, per settle
strategy:

* step calls, simulated cycles and wall seconds (→ cycles/second);
* settle delta-iteration counts (for the compiled backend these are the
  guarded/cyclic-group convergence rounds — 1 per settle on a fully
  scheduled design);
* analysis-miss (fallback) hits — settles where the compiled schedule was
  caught missing a write and self-corrected through the fixpoint oracle;

plus per-design compile accounting: emission time, cyclic-group counts
and sizes, opaque (non-dissolved) process counts and the processes left
generic (called as written rather than specialised).

Like tracing, the disabled path is one attribute read
(:func:`active` returning ``None``) and allocates nothing; the simulator
only enters its instrumented step loop while a profiler is installed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class SettleProfiler:
    """Accumulates per-strategy settle statistics (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.strategies: Dict[str, Dict[str, float]] = {}
        self.compiles: List[Dict[str, object]] = []

    def _bucket(self, strategy: str) -> Dict[str, float]:
        bucket = self.strategies.get(strategy)
        if bucket is None:
            bucket = self.strategies[strategy] = {
                "steps": 0, "cycles": 0, "seconds": 0.0,
                "settle_iterations": 0, "fallback_hits": 0, "sims": 0,
            }
        return bucket

    # -- recording hooks (called by the simulator's profiled paths) --------

    def record_sim(self, strategy: str) -> None:
        with self._lock:
            self._bucket(strategy)["sims"] += 1

    def record_step(self, strategy: str, cycles: int, seconds: float,
                    settle_iterations: int = 0,
                    fallback_hits: int = 0) -> None:
        with self._lock:
            bucket = self._bucket(strategy)
            bucket["steps"] += 1
            bucket["cycles"] += cycles
            bucket["seconds"] += seconds
            bucket["settle_iterations"] += settle_iterations
            bucket["fallback_hits"] += fallback_hits

    def record_compile(self, seconds: float, report=None) -> None:
        entry: Dict[str, object] = {"seconds": seconds}
        if report is not None:
            entry.update(
                n_procs=report.n_procs,
                n_transpiled=report.n_transpiled_procs,
                n_opaque=report.n_opaque_procs,
                n_generic=report.n_generic_procs,
                n_cyclic_groups=report.n_cyclic_groups,
                cyclic_group_sizes=list(report.cyclic_group_sizes),
                guarded=report.guarded,
            )
        with self._lock:
            self.compiles.append(entry)

    # -- reporting ---------------------------------------------------------

    def report(self) -> str:
        """The ``--profile`` table: one row per exercised settle strategy."""
        with self._lock:
            lines = ["settle profile (per strategy):"]
            header = (f"  {'strategy':<18} {'sims':>5} {'steps':>8} "
                      f"{'cycles':>10} {'settles':>9} {'fallback':>8} "
                      f"{'wall s':>9} {'kcyc/s':>9}")
            lines.append(header)
            for strategy in sorted(self.strategies):
                b = self.strategies[strategy]
                kcps = (b["cycles"] / b["seconds"] / 1e3
                        if b["seconds"] else 0.0)
                lines.append(
                    f"  {strategy:<18} {int(b['sims']):>5} "
                    f"{int(b['steps']):>8} {int(b['cycles']):>10} "
                    f"{int(b['settle_iterations']):>9} "
                    f"{int(b['fallback_hits']):>8} {b['seconds']:>9.3f} "
                    f"{kcps:>9.1f}")
            if self.compiles:
                total = sum(float(c["seconds"]) for c in self.compiles)
                cyclic = sum(int(c.get("n_cyclic_groups", 0))
                             for c in self.compiles)
                opaque = sum(int(c.get("n_opaque", 0))
                             for c in self.compiles)
                generic = sum(int(c.get("n_generic", 0))
                              for c in self.compiles)
                lines.append(
                    f"compile: {len(self.compiles)} emission(s), "
                    f"{total:.3f} s total; {cyclic} cyclic group(s), "
                    f"{opaque} opaque proc(s), {generic} generic proc(s)")
            return "\n".join(lines)


#: The installed profiler, or ``None`` (the common case).
_ACTIVE: Optional[SettleProfiler] = None


def active() -> Optional[SettleProfiler]:
    """The installed profiler, or ``None`` — one attribute read."""
    return _ACTIVE


def enable() -> SettleProfiler:
    """Install (and return) a fresh process-global profiler."""
    global _ACTIVE
    _ACTIVE = SettleProfiler()
    return _ACTIVE


def disable() -> Optional[SettleProfiler]:
    """Uninstall the profiler; returns it so its report can still be read."""
    global _ACTIVE
    profiler, _ACTIVE = _ACTIVE, None
    return profiler

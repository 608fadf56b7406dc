"""Host-speed correction for the benchmark's end-to-end timings.

The reference host is a shared 2-CPU virtual machine.  Each of its CPUs
switches, every few seconds, between a fast state and one 1.4-2x slower,
because of load from other tenants; a whole run can sit in the slow
state.  Best-of-N cannot remove that, so every timed operation is
bracketed by a fixed pure-Python probe, and its time is scaled by
``NOMINAL_PROBE_S / probe``: the seconds it would have taken on a host
where the probe takes :data:`NOMINAL_PROBE_S` (the reference host's fast
state).  ``probe`` is the faster of the two bracketing probes, so a state
flip between probe and operation leaves the operation uncorrected rather
than over-corrected.  The raw seconds are kept beside the corrected ones.

The probe sees only the CPU it runs on.  An operation whose work runs
in a worker pool spread over every CPU (``OpClock.op(name, pool=True)``)
is bracketed by :func:`probe_cpus` instead, which probes each CPU in
turn and averages them.

The correction assumes the probe and the program slow down alike.  A
change that slows every Python loop in the process, such as a global
trace hook, slows the probe too and is partly hidden.
"""

from __future__ import annotations

import os
import time
from typing import Dict

#: Iterations of the probe loop.
PROBE_LOOPS = 20_000

#: Probe seconds on the reference host in its fast state.
NOMINAL_PROBE_S = 1.5e-3

#: A probe this recent is reused as the next operation's "before" probe.
REUSE_S = 0.05


def probe() -> float:
    """Seconds the fixed probe loop takes right now."""
    began = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


def probe_cpus() -> float:
    """Mean probe seconds over every CPU this thread may run on."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class _Op:
    __slots__ = ("clock", "name", "pool", "before", "began")

    def __init__(self, clock: "OpClock", name: str, pool: bool) -> None:
        self.clock = clock
        self.name = name
        self.pool = pool

    def __enter__(self) -> None:
        clock = self.clock
        if self.pool:
            self.before = probe_cpus() if clock.correct else 0.0
        elif clock.correct:
            recent = time.perf_counter() - clock._probed_at < REUSE_S
            self.before = clock._last_probe if recent else probe()
        self.began = time.perf_counter()

    def __exit__(self, *exc) -> None:
        raw = time.perf_counter() - self.began
        clock = self.clock
        clock.raw[self.name] = raw
        if not clock.correct:
            clock.ops[self.name] = raw
            return
        if self.pool:
            after = probe_cpus()
        else:
            after = probe()
            clock._last_probe, clock._probed_at = after, time.perf_counter()
        clock.ops[self.name] = raw * NOMINAL_PROBE_S / min(self.before,
                                                           after)


class OpClock:
    """Times named operations; :attr:`ops` holds corrected seconds.

    With ``correct=False`` no probe runs and :attr:`ops` holds raw
    seconds (the traced run compares wall times, so it must not probe).
    """

    def __init__(self, correct: bool) -> None:
        self.correct = correct
        self.ops: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self._last_probe = 0.0
        self._probed_at = float("-inf")

    def op(self, name: str, pool: bool = False) -> _Op:
        return _Op(self, name, pool)

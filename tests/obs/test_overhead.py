"""Disabled telemetry must cost (provably) nothing on the hot loop.

Two guarantees, both tier-1:

* a settle/step loop with telemetry off emits **zero** span records and
  never even calls :func:`repro.obs.tracing.span`;
* the per-cycle loops (``step`` and ``run_until``) allocate **no objects
  from the obs package** — the dispatch checks at the top of
  ``Simulator.step`` and ``Simulator.run_until`` are the entire cost.

The throughput side of the same promise is pinned by the
``compiled-obs-off`` floor in ``benchmarks/check_regression.py``.
"""

import os
import tracemalloc

import pytest

import repro.obs
from repro.obs import tracing
from repro.rtl import Component, Simulator


class Counter(Component):
    def __init__(self, width=16):
        super().__init__("counter")
        self.value = self.state(width)
        self.parity = self.signal(1)

        @self.comb
        def comb_parity():
            self.parity.next = self.value.value & 1

        @self.seq
        def count():
            self.value.next = self.value.value + 1


@pytest.fixture(autouse=True)
def _telemetry_off():
    tracing.disable()
    tracing.drain()
    yield
    tracing.disable()
    tracing.drain()


@pytest.mark.parametrize("strategy", ["fixpoint", "compiled"])
def test_disabled_step_emits_zero_spans_and_never_calls_span(
        strategy, monkeypatch):
    sim = Simulator(Counter(), strategy=strategy)

    def exploded(*args, **kwargs):
        raise AssertionError("tracing.span() called on the disabled path")

    monkeypatch.setattr(tracing, "span", exploded)
    sim.step(100)
    sim.run_until(lambda: sim.cycles >= 200)
    sim.settle()
    assert tracing.records() == []
    assert tracing.stats()["recorded"] == 0


@pytest.mark.parametrize("strategy", ["fixpoint", "compiled"])
def test_disabled_step_allocates_nothing_from_obs(strategy):
    """tracemalloc, filtered to repro/obs/*.py: zero new allocations."""
    obs_dir = os.path.dirname(repro.obs.__file__)
    filters = [tracemalloc.Filter(True, os.path.join(obs_dir, "*"))]
    sim = Simulator(Counter(), strategy=strategy)
    sim.step(50)  # warm every lazy path before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(filters)
        sim.step(500)
        sim.run_until(lambda: sim.cycles >= 1050)
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    grown = [diff for diff in after.compare_to(before, "lineno")
             if diff.size_diff > 0 or diff.count_diff > 0]
    assert not grown, (
        "telemetry-disabled step loop allocated in repro.obs: "
        + "; ".join(str(d) for d in grown))


def test_enable_then_disable_restores_the_fast_path(monkeypatch):
    """After a telemetry session ends, stepping is plain again."""
    sim = Simulator(Counter(), strategy="compiled")
    tracing.enable()
    sim.step(10)
    tracing.disable()
    recorded = len(tracing.records())
    assert recorded >= 1  # the instrumented batch span

    calls = []
    monkeypatch.setattr(
        tracing, "span",
        lambda *a, **k: calls.append(a) or tracing.NULL_SPAN)
    sim.step(100)
    assert calls == []
    assert len(tracing.records()) == recorded

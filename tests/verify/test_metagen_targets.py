"""Verification targets for the metagen components and the flow pipeline.

The satellite guarantee of the composition PR: the width converters and the
arbiters are first-class verification targets (not just transitively
exercised inside designs), with 100 % coverage closure at seeds 0-2 — the
same seed matrix the CI ``randomized-verification`` job runs.
"""

import pytest

from repro.metagen import WidthAdaptationPlan, WidthDownConverter
from repro.rtl import COMPILED, FIXPOINT, Component, Simulator
from repro.verify import TARGETS, WidthAdapterMonitor, metagen_targets, verify

NEW_TARGETS = ("adapter/down", "adapter/up",
               "arbiter/priority", "arbiter/roundrobin")


def test_metagen_targets_are_registered():
    assert set(metagen_targets()) == set(NEW_TARGETS)
    assert "design/flow-dualpath" in TARGETS


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NEW_TARGETS)
def test_coverage_closure_at_ci_seed_matrix(name, seed):
    """Closure at every seed individually, not just merged across seeds."""
    result = verify(name, seed=seed)
    assert result.ok, "\n".join(str(v) for v in result.violations[:5])
    assert result.coverage_percent == 100.0, \
        f"unhit coverage goals: {result.coverage.unhit()}"
    assert result.transactions > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_pipeline_target_closes_with_edge_monitors(seed):
    result = verify("design/flow-dualpath", seed=seed)
    assert result.ok
    assert result.coverage_percent == 100.0


@pytest.mark.parametrize("name", ["adapter/down", "arbiter/roundrobin",
                                  "design/flow-dualpath"])
def test_new_targets_identical_across_strategies(name):
    import json

    outcomes = {}
    for strategy in (FIXPOINT, COMPILED):
        result = verify(name, seed=4, cycles=600, strategy=strategy)
        outcomes[strategy] = (
            json.dumps(result.coverage.to_dict(), sort_keys=True),
            result.transactions,
            [str(v) for v in result.violations],
        )
    assert outcomes[COMPILED] == outcomes[FIXPOINT]


# -- the monitors actually catch faults ---------------------------------------


class _FakeConverter(Component):
    """A converter-shaped shell whose signals a test drives directly."""

    def __init__(self) -> None:
        super().__init__("fake")
        from repro.core.interfaces import StreamSinkIface, StreamSourceIface

        self.plan = WidthAdaptationPlan(16, 8)
        self.wide_in = StreamSinkIface(self, 16, name="fake_wide")
        self.narrow_out = StreamSourceIface(self, 8, name="fake_narrow")
        self._remaining = self.signal(2, name="fake_remaining")


def test_adapter_monitor_flags_wrong_beat_order():
    dut = _FakeConverter()
    sim = Simulator(dut)
    monitor = WidthAdapterMonitor("fake", dut, "down").attach(sim)

    # Accept the element 0xABCD, then emit the LOW byte first (wrong: the
    # plan says most-significant beat first).
    dut.wide_in.data.force(0xABCD)
    dut.wide_in.push.force(1)
    dut.wide_in.ready.force(1)
    monitor.pre_edge(sim.cycles)
    sim.step()
    dut.wide_in.push.force(0)
    dut.wide_in.ready.force(0)
    dut._remaining.force(2)
    dut.narrow_out.data.force(0xCD)
    dut.narrow_out.valid.force(1)
    dut.narrow_out.pop.force(1)
    monitor.pre_edge(sim.cycles)
    assert not monitor.ok
    assert any(v.rule.endswith("data-mismatch") for v in monitor.violations)
    monitor.detach()


def test_adapter_monitor_flags_phantom_output():
    dut = _FakeConverter()
    sim = Simulator(dut)
    monitor = WidthAdapterMonitor("fake", dut, "down").attach(sim)
    dut.narrow_out.data.force(0x55)
    dut.narrow_out.valid.force(1)
    dut.narrow_out.pop.force(1)
    monitor.pre_edge(sim.cycles)
    assert any(v.rule.endswith("phantom-output") for v in monitor.violations)
    monitor.detach()


def test_adapter_monitor_rejects_bad_direction():
    dut = WidthDownConverter("dut", element_width=16, bus_width=8)
    with pytest.raises(ValueError):
        WidthAdapterMonitor("bad", dut, "sideways")


def test_real_converter_session_is_clean_under_monitor():
    """Sanity: the real converter driven politely produces no violations."""
    dut = WidthDownConverter("dut", element_width=16, bus_width=8)
    sim = Simulator(dut)
    monitor = WidthAdapterMonitor("dut", dut, "down").attach(sim)
    received = []
    elements = [0x1234, 0xBEEF, 0x0001]
    feed = list(elements)
    for _ in range(200):
        if feed and dut.wide_in.ready.value:
            dut.wide_in.data.force(feed[0])
            dut.wide_in.push.force(1)
        else:
            dut.wide_in.push.force(0)
        dut.narrow_out.pop.force(1)
        sim.settle()
        if dut.wide_in.push.value and dut.wide_in.ready.value:
            feed.pop(0)
        if dut.narrow_out.valid.value:
            received.append(dut.narrow_out.data.value)
        monitor.pre_edge(sim.cycles)
        sim.step()
        if len(received) == 6:
            break
    expected = [b for e in elements for b in WidthAdaptationPlan(16, 8).split(e)]
    assert received == expected
    assert monitor.ok, monitor.violations[:3]
    monitor.detach()

"""Every entry point defaults to the ``compiled`` settle strategy.

``fixpoint`` is the only other strategy, kept as the differential oracle;
no raw simulator entry point may keep a default of its own.
"""

import inspect

from repro.designs import VideoSystem, run_stream_through
from repro.explore.runner import resolve_strategy
from repro.rtl import STRATEGIES, Simulator
from repro.search.driver import SearchConfig
from repro.serve.jobs import SweepConfig
from repro.synth.characterize import measure_stream_cycles_per_element
from repro.verify import verify, verify_all
from repro.verify.__main__ import build_parser


def default_strategy(func) -> str:
    return inspect.signature(func).parameters["strategy"].default


def test_every_entry_point_defaults_to_compiled():
    for func in (Simulator, VideoSystem.simulate, run_stream_through,
                 measure_stream_cycles_per_element, verify, verify_all):
        assert default_strategy(func) == "compiled", func.__qualname__
    assert build_parser().get_default("strategy") == "compiled"
    assert SearchConfig.__dataclass_fields__["strategy"].default == "compiled"
    assert resolve_strategy(SweepConfig().strategy) == "compiled"


def test_event_strategy_is_gone():
    assert "event" not in STRATEGIES
    assert STRATEGIES == ("fixpoint", "compiled")

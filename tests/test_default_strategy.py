"""Every entry point defaults to the ``compiled`` settle strategy.

``fixpoint`` is the only other strategy, kept as the differential oracle;
no raw simulator entry point may keep a default of its own.
"""

import inspect

import pytest

from repro.designs import VideoSystem, run_stream_through
from repro.explore import ExplorationRunner
from repro.explore.__main__ import build_parser as explore_parser
from repro.explore.__main__ import main as explore_main
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
    assert SweepConfig().strategy == "compiled"
    assert ExplorationRunner().config.strategy == "compiled"
    assert explore_parser().get_default("strategy") == "compiled"


def test_auto_is_not_a_strategy(tmp_path):
    """``auto`` was an alias of ``compiled``; no entry point accepts it."""
    from repro.serve.client import ServiceError, SweepClient
    from repro.serve.server import SweepServer

    with pytest.raises(ValueError, match="unknown strategy 'auto'"):
        ExplorationRunner(strategy="auto")
    with pytest.raises(SystemExit) as excinfo:
        explore_main(["--strategy", "auto"])
    assert excinfo.value.code == 2
    spec = {"designs": ["saa2vga"], "bindings": ["fifo"],
            "capacities": [8], "frames": ["8x4"]}
    with SweepServer(tmp_path / "store", workers=1) as server:
        with pytest.raises(ServiceError) as excinfo:
            SweepClient(server.url).submit(
                {"spec": spec, "config": {"strategy": "auto"}})
    assert excinfo.value.status == 400
    assert "unknown strategy 'auto'" in str(excinfo.value)


def test_event_strategy_is_gone():
    assert "event" not in STRATEGIES
    assert STRATEGIES == ("fixpoint", "compiled")

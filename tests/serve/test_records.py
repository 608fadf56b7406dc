"""Record round-trips and the content-addressed key scheme."""

import pytest

from repro.explore import DesignPoint, ExplorationRunner, evaluate_point
from repro.flow.sweep import PipelinePoint
from repro.serve.jobs import SweepConfig
from repro.serve.records import (
    UnstorablePointError,
    exploration_key,
    point_from_dict,
    point_to_dict,
    record_matches,
    result_from_record,
    result_to_record,
    verify_key,
    verify_record,
    verify_summary_line,
)
from repro.serve.store import SCHEMA_VERSION

POINT = DesignPoint(design="saa2vga", binding="fifo", pixel_format="gray8",
                    frame_width=8, frame_height=4, capacity=8)
PIPE_POINT = PipelinePoint(topology="chain", stages=2, fifo_depth=4,
                           bus_width=8, frame_width=8, frame_height=4)


# -- points ---------------------------------------------------------------------


def test_design_point_round_trip():
    data = point_to_dict(POINT)
    assert data["family"] == "design"
    assert point_from_dict(data) == POINT


def test_pipeline_point_round_trip():
    data = point_to_dict(PIPE_POINT)
    assert data["family"] == "pipeline"
    assert point_from_dict(data) == PIPE_POINT


def test_unknown_point_family_is_unstorable():
    class DuckPoint:
        design = "custom"

    with pytest.raises(UnstorablePointError):
        point_to_dict(DuckPoint())
    with pytest.raises(UnstorablePointError):
        point_from_dict({"family": "martian"})


# -- keys -----------------------------------------------------------------------


def test_exploration_keys_are_stable_and_content_addressed():
    key = exploration_key(POINT, "compiled", False, 0, 1500)
    assert key == exploration_key(POINT, "compiled", False, 0, 1500)
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")


def test_every_config_axis_changes_the_key():
    base = exploration_key(POINT, "compiled", False, 0, 1500)
    assert exploration_key(POINT, "fixpoint", False, 0, 1500) != base
    assert exploration_key(POINT, "compiled", True, 0, 1500) != base
    assert exploration_key(POINT, "compiled", False, 1, 1500) != base
    assert exploration_key(POINT, "compiled", False, 0, 999) != base
    other = DesignPoint(design="saa2vga", binding="sram",
                        pixel_format="gray8", frame_width=8, frame_height=4,
                        capacity=8)
    assert exploration_key(other, "compiled", False, 0, 1500) != base


def test_store_key_matches_the_runner_memo_normalisation():
    """CLI --store, the service and in-process sweeps share store entries."""
    key = exploration_key(POINT, "compiled", False, 0, 1500)
    assert ExplorationRunner().config.key_for(POINT) == key
    assert ExplorationRunner(strategy="compiled").config.key_for(POINT) == key
    assert SweepConfig().key_for(POINT) == key


def test_verify_keys_pin_the_resolved_cycle_budget():
    key = verify_key("queue/fifo", 0, 2000, "fixpoint")
    assert key == verify_key("queue/fifo", 0, 2000, "fixpoint")
    assert verify_key("queue/fifo", 1, 2000, "fixpoint") != key
    assert verify_key("queue/fifo", 0, 2001, "fixpoint") != key
    assert verify_key("queue/fifo", 0, 2000, "compiled") != key
    assert verify_key("queue/sram", 0, 2000, "fixpoint") != key


# -- exploration records --------------------------------------------------------


def test_result_record_round_trip_is_lossless():
    import json

    result = evaluate_point(POINT, strategy="compiled")
    key = exploration_key(POINT, "compiled", False, 0, 1500)
    record = result_to_record(result, key, {"strategy": "compiled"})
    assert record["schema"] == SCHEMA_VERSION
    assert record_matches(record, "exploration")
    # Through the wire/disk format, not just the in-memory dict.
    record = json.loads(json.dumps(record))
    rebuilt = result_from_record(record)
    assert rebuilt == result, \
        "a cached record must be indistinguishable from a fresh simulation"
    assert rebuilt.row() == result.row()


def test_record_matches_rejects_foreign_shapes():
    assert not record_matches(None, "exploration")
    assert not record_matches({"kind": "verify"}, "exploration")
    assert not record_matches({"kind": "exploration", "result": []},
                              "exploration")


# -- verification records -------------------------------------------------------


def test_verify_record_replays_the_session_summary():
    from repro.verify import verify
    from repro.verify.coverage import CoverageDB

    result = verify("queue/fifo", seed=0, strategy="compiled")
    key = verify_key("queue/fifo", 0, result.cycles, "compiled")
    record = verify_record(result, key)
    assert record_matches(record, "verify")

    line = verify_summary_line(record, suffix="")
    assert line == result.summary(), \
        "a cached session must print exactly what the live one printed"

    # The stored covergroup merges into a CoverageDB like the live one.
    live, cached = CoverageDB(), CoverageDB()
    live.add(result.coverage)
    cached.add(record["result"]["coverage_group"])
    assert cached.to_json() == live.to_json()

"""Trace integrity: exports validate and round-trip (satellite of the
telemetry PR).

A real traced simulation provides the fixture records, so these tests
cover the actual span taxonomy (compile/analyze/schedule/emit, settle,
explore.point, store.get/put) rather than synthetic dicts.
"""

import json

import pytest

from repro.obs import export, tracing
from repro.obs.__main__ import main as obs_main
from repro.rtl import Component, Simulator
from repro.rtl.compile import _clear_recipes


class Blinker(Component):
    def __init__(self):
        super().__init__("blinker")
        self.out = self.state(1)

        @self.seq
        def flip():
            self.out.next = 0 if self.out.value else 1


@pytest.fixture()
def records():
    # A cold compile, so the compile span has analyze/schedule/emit children.
    _clear_recipes()
    tracing.disable()
    tracing.drain()
    tracing.enable()
    sim = Simulator(Blinker(), strategy="compiled")
    sim.step(5)
    sim.run_until(lambda: sim.cycles >= 10)
    tracing.add_event("marker", check=True)
    tracing.disable()
    out = tracing.drain()
    assert out, "traced simulation produced no records"
    return out


def test_chrome_export_passes_structural_validation(records):
    chrome = export.to_chrome(records)
    assert export.validate_chrome(chrome) == []


def test_chrome_events_are_sorted_complete_and_single_pid(records):
    events = export.to_chrome(records)["traceEvents"]
    stamps = [e["ts"] for e in events]
    assert stamps == sorted(stamps)
    assert len({e["pid"] for e in events}) == 1
    for event in events:
        assert event["ph"] in ("X", "i")
        if event["ph"] == "X":
            assert isinstance(event["dur"], float)
        else:
            assert event["s"] == "t"


def test_validator_flags_broken_traces():
    assert export.validate_chrome({}) == ["payload has no traceEvents list"]
    assert "zero events" in export.validate_chrome({"traceEvents": []})[0]
    bad = {"traceEvents": [
        {"name": "b", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 1},
        {"name": "a", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 2, "tid": 1},
        {"name": "c", "ph": "B", "ts": 9.0, "pid": 1, "tid": 1},
        {"name": "d", "ph": "X", "ts": 9.0, "pid": 1, "tid": 1},
    ]}
    problems = "\n".join(export.validate_chrome(bad))
    assert "must be sorted" in problems
    assert "unstable pid" in problems
    assert "not a complete" in problems
    assert "without numeric dur" in problems


def test_ndjson_round_trip_is_lossless(records, tmp_path):
    path = tmp_path / "trace.ndjson"
    export.write_ndjson(records, path)
    assert export.read_ndjson(path) == records
    assert export.read_trace(path) == records  # extension dispatch


def test_chrome_file_reads_back_as_records(records, tmp_path):
    path = tmp_path / "trace.json"
    assert export.write_trace(records, path) == "chrome"
    loaded = export.read_trace(path)
    assert len(loaded) == len(records)
    assert {r["name"] for r in loaded} == {r["name"] for r in records}


def test_attribution_covers_compile_pipeline(records):
    """The compile span's analyze/schedule/emit children account for it."""
    root, fraction = export.attribution(
        [r for r in records if r["name"] in
         ("compile", "analyze", "schedule", "emit")])
    assert root["name"] == "compile"
    assert fraction > 0.5


# -- python -m repro.obs ----------------------------------------------------

def test_cli_summarize_round_trips_ndjson(records, tmp_path, capsys):
    path = tmp_path / "trace.ndjson"
    export.write_ndjson(records, path)
    assert obs_main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "compile" in out and "settle" in out
    assert "attributed to direct children" in out


def test_cli_convert_then_validate(records, tmp_path, capsys):
    ndjson = tmp_path / "trace.ndjson"
    chrome = tmp_path / "trace.json"
    export.write_ndjson(records, ndjson)
    assert obs_main(["convert", str(ndjson), str(chrome)]) == 0
    payload = json.loads(chrome.read_text())
    assert export.validate_chrome(payload) == []
    assert obs_main(["validate", str(chrome)]) == 0
    assert "is valid" in capsys.readouterr().out


def test_cli_validate_min_attribution(records, tmp_path, capsys):
    path = tmp_path / "trace.ndjson"
    export.write_ndjson(records, path)
    # attribution of this trace's root is high; an impossible floor fails
    assert obs_main(["validate", str(path), "--min-attribution", "101"]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_cli_unreadable_trace_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.ndjson"
    assert obs_main(["summarize", str(missing)]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_cli_corrupt_json_is_error(tmp_path, capsys):
    # a .json file that parses as neither a chrome object nor NDJSON lines
    path = tmp_path / "broken.json"
    path.write_text("{definitely not json\n", encoding="utf-8")
    assert obs_main(["validate", str(path)]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def truncated_trace(tmp_path, records):
    """An NDJSON trace whose header declares ring-buffer truncation."""
    path = tmp_path / "truncated.ndjson"
    export.write_ndjson(
        [export.meta_record(dropped_spans=12)] + records, path)
    return path


def test_cli_validate_warns_on_truncated_trace(records, tmp_path, capsys):
    path = truncated_trace(tmp_path, records)
    assert obs_main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert "is valid" in captured.out
    assert "truncated" in captured.err and "12 span(s) dropped" in captured.err


def test_cli_validate_strict_fails_on_truncated_trace(records, tmp_path,
                                                      capsys):
    path = truncated_trace(tmp_path, records)
    assert obs_main(["validate", str(path), "--strict"]) == 1
    assert "truncated" in capsys.readouterr().err


def test_cli_validate_strict_passes_untruncated(records, tmp_path, capsys):
    path = tmp_path / "clean.ndjson"
    export.write_ndjson([export.meta_record(dropped_spans=0)] + records, path)
    assert obs_main(["validate", str(path), "--strict"]) == 0
    assert "is valid" in capsys.readouterr().out


def test_cli_timeline_on_in_process_trace(records, tmp_path, capsys):
    # timeline degrades gracefully on a single-process trace: the header
    # and critical path render even without worker.shard/shard spans.
    path = tmp_path / "trace.ndjson"
    export.write_ndjson(records, path)
    assert obs_main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "critical path" in out

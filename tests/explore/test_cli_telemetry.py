"""The CLIs' ``--trace``/``--profile`` lifecycle end to end.

Explore, search and verify wrap their run in :func:`repro.obs.recording`:
it enables tracing before the run, always disables it afterwards, and
writes the trace file and prints the ``--profile`` report (the phase
table, ``kernel:`` and ``compile:`` lines) even when the run raises.
These tests drive each ``main()`` in-process.
"""

import re

import pytest

import repro.verify.__main__ as verify_cli
from repro.explore.__main__ import main as explore_main
from repro.obs import export, tracing
from repro.rtl.compile import _clear_recipes
from repro.search.__main__ import main as search_main
from repro.serve import ResultStore
from repro.serve.server import SweepServer


@pytest.fixture(autouse=True)
def _telemetry_reset():
    yield
    tracing.disable()
    tracing.drain()


def _run(tmp_path, *extra):
    argv = ["--designs", "saa2vga", "--bindings", "fifo",
            "--capacities", "16", "32", "--frames", "8x4",
            "--store", str(tmp_path / "store"), *extra]
    return explore_main(argv)


def test_trace_flag_writes_validating_trace(tmp_path, capsys):
    # A fresh CLI process compiles both points cold; recipes other tests
    # left in this process must not shorten the points.
    _clear_recipes()
    trace = tmp_path / "sweep.ndjson"
    assert _run(tmp_path, "--trace", str(trace)) == 0
    out = capsys.readouterr().out
    assert f"written to {trace}" in out

    records = export.read_trace(trace)
    assert export.validate_chrome(export.to_chrome(records)) == []
    names = {r["name"] for r in records}
    assert "explore.sweep" in names
    assert "explore.point" in names or "build" in names

    # acceptance: >= 95% of sweep wall time lands in named child phases
    root, fraction = export.attribution(records)
    assert root["name"] == "explore.sweep"
    assert fraction >= 0.95, f"only {fraction:.1%} attributed"

    # the CLI turned tracing back off after the run
    assert not tracing._STATE.active
    assert tracing.records() == []


def test_trace_flag_chrome_extension_writes_chrome_format(tmp_path):
    trace = tmp_path / "sweep.json"
    assert _run(tmp_path, "--trace", str(trace)) == 0
    loaded = export.read_trace(trace)
    # spans/instants plus the ph "M" trace.meta truncation header
    assert loaded and all(r["ph"] in ("X", "i", "M") for r in loaded)
    assert any(r["ph"] in ("X", "i") for r in loaded)


def test_profile_flag_prints_report(tmp_path, capsys):
    assert _run(tmp_path, "--profile") == 0
    out = capsys.readouterr().out
    assert "root span 'explore.sweep'" in out
    assert re.search(r"^kernel: compiled \d+ cycle\(s\) in .*"
                     r"\(2 span\(s\)\)$", out, re.M)
    assert "\ncompile: 2 construction(s), " in out
    assert not tracing.enabled()  # lifecycle: disabled after the run
    assert tracing.records() == []


def test_pooled_profile_counts_every_workers_constructions(tmp_path, capsys):
    """Workers ship their counter deltas back on every shard reply, so
    the compile line counts the constructions made in the pool."""
    assert _run(tmp_path, "--processes", "2", "--profile") == 0
    out = capsys.readouterr().out
    assert "\ncompile: 2 construction(s), " in out
    assert not tracing.enabled()


def test_profile_on_a_warm_store_counts_no_construction(tmp_path, capsys):
    assert _run(tmp_path) == 0
    capsys.readouterr()
    assert _run(tmp_path, "--profile") == 0
    out = capsys.readouterr().out
    assert "2 point(s) evaluated (2 from cache" in out
    assert "\ncompile: 0 construction(s), 0 from the recipe cache, " in out
    assert "kernel:" not in out


def test_without_flags_no_telemetry_artifacts(tmp_path, capsys):
    assert _run(tmp_path) == 0
    out = capsys.readouterr().out
    assert "compile:" not in out
    assert "trace:" not in out
    assert tracing.records() == []


def test_server_mode_trace_records_nothing_locally(tmp_path, capsys):
    """With --server the merged trace comes from the pool; the client
    must not leave a tracing session of its own running."""
    trace = tmp_path / "merged.ndjson"
    with SweepServer(ResultStore(tmp_path / "served"), workers=1) as server:
        status = explore_main(["--designs", "saa2vga", "--bindings", "fifo",
                               "--capacities", "16", "--frames", "8x4",
                               "--server", server.url,
                               "--trace", str(trace)])
    assert status == 0
    assert f"merged record(s) from {server.url}" in capsys.readouterr().out
    assert any(r["name"] == "worker.shard"
               for r in export.read_trace(trace))
    assert not tracing.enabled()
    assert tracing.records() == []


SEARCH = ["queue/fifo", "--cycles", "120", "--budget", "4"]


def test_search_trace_flag_writes_validating_trace(tmp_path, capsys):
    trace = tmp_path / "search.ndjson"
    assert search_main(SEARCH + ["--trace", str(trace)]) == 0
    assert f"written to {trace}" in capsys.readouterr().out
    records = export.read_trace(trace)
    assert export.validate_chrome(export.to_chrome(records)) == []
    assert "search.run" in {r["name"] for r in records}
    assert not tracing.enabled()
    assert tracing.records() == []


def test_search_profile_flag_prints_report(capsys):
    assert search_main(SEARCH + ["--profile"]) == 0
    out = capsys.readouterr().out
    assert "search.run" in out
    assert "\ncompile: " in out
    assert not tracing.enabled()


def test_verify_profile_flag_prints_report(capsys):
    assert verify_cli.main(["queue/fifo", "--cycles", "120",
                            "--profile"]) == 0
    out = capsys.readouterr().out
    assert "verify.session" in out
    assert "\ncompile: 1 construction(s), " in out
    # single-cycle steps record no span, so verify prints no kernel rate
    assert "kernel:" not in out
    assert not tracing.enabled()


def test_verify_profile_is_reported_and_off_when_the_run_raises(
        monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("session blew up")

    monkeypatch.setattr(verify_cli, "_run", broken)
    with pytest.raises(RuntimeError, match="session blew up"):
        verify_cli.main(["queue/fifo", "--profile"])
    assert "\ncompile: 0 construction(s), " in capsys.readouterr().out
    assert not tracing.enabled()

"""The CLIs as store/service clients.

Pins the acceptance criterion end to end at the command-line layer: the
same grid swept twice through ``python -m repro.explore --store`` and
through ``--server`` constructs **zero** simulators on the second pass
(asserted with the ``simulator_constructions`` counter), and ``python -m
repro.verify --store`` replays clean sessions from the store.
"""

import pytest

from repro.explore.__main__ import main as explore_main
from repro.obs.metrics import REGISTRY
from repro.serve import ResultStore, SweepServer
from repro.verify.__main__ import main as verify_main

GRID = ["--designs", "saa2vga", "--bindings", "fifo", "sram",
        "--capacities", "8", "--frames", "8x4"]


def constructions():
    """Simulators constructed so far in this process (pool work folds in)."""
    return REGISTRY.value("simulator_constructions")


# -- explore --store ------------------------------------------------------------


def test_explore_store_mode_warm_resweep_is_zero_simulations(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert explore_main(GRID + ["--store", store_dir]) == 0
    first = capsys.readouterr().out
    assert "2 point(s) evaluated (0 from cache, 0 from store)" in first

    before = constructions()
    assert explore_main(GRID + ["--store", store_dir]) == 0
    second = capsys.readouterr().out
    assert "2 point(s) evaluated (2 from cache, 2 from store)" in second
    assert constructions() == before, \
        "a warm --store re-sweep must not construct a single simulator"

    # The reports themselves are identical — cached results are
    # indistinguishable from fresh ones.
    assert [line for line in first.splitlines() if "saa2vga" in line] == \
        [line for line in second.splitlines() if "saa2vga" in line]


def test_explore_store_mode_is_incremental_across_grids(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert explore_main(GRID + ["--store", store_dir]) == 0
    capsys.readouterr()
    # A superset grid only simulates the two genuinely new points.
    wider = ["--designs", "saa2vga", "--bindings", "fifo", "sram",
             "--capacities", "8", "16", "--frames", "8x4"]
    assert explore_main(wider + ["--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "4 point(s) evaluated (2 from cache, 2 from store)" in out


def test_explore_compiled_strategy_shares_the_store_with_auto(tmp_path, capsys):
    """auto resolves to compiled before keying: one store entry either way."""
    store_dir = str(tmp_path / "store")
    assert explore_main(GRID + ["--store", store_dir,
                                "--strategy", "compiled"]) == 0
    capsys.readouterr()
    before = constructions()
    assert explore_main(GRID + ["--store", store_dir,
                                "--strategy", "auto"]) == 0
    out = capsys.readouterr().out
    assert "(2 from cache, 2 from store)" in out
    assert constructions() == before


# -- explore --server -----------------------------------------------------------


def test_explore_server_mode_round_trip_and_warm_cache(tmp_path, capsys):
    with SweepServer(ResultStore(tmp_path / "store"), workers=2,
                     shard_size=2) as server:
        assert explore_main(GRID + ["--server", server.url]) == 0
        first = capsys.readouterr().out
        assert f"(0 from cache, via {server.url})" in first
        assert "saa2vga" in first

        before = constructions()
        assert explore_main(GRID + ["--server", server.url]) == 0
        second = capsys.readouterr().out
        assert f"(2 from cache, via {server.url})" in second
        assert constructions() == before, \
            "warm server sweeps must be served entirely from the store"

    assert [line for line in first.splitlines() if "saa2vga" in line] == \
        [line for line in second.splitlines() if "saa2vga" in line]


def test_explore_server_mode_failures_set_exit_status(tmp_path, capsys):
    with SweepServer(ResultStore(tmp_path / "store"), workers=1) as server:
        status = explore_main(["--server", server.url + "/missing-prefix",
                               "--quiet"] + GRID)
    assert status == 3  # unreachable/misrouted service is its own exit code


def test_explore_json_artifact_matches_between_local_and_server(tmp_path):
    import json

    with SweepServer(ResultStore(tmp_path / "store"), workers=1) as server:
        local, remote = tmp_path / "local.json", tmp_path / "remote.json"
        assert explore_main(GRID + ["--quiet", "--json", str(local)]) == 0
        assert explore_main(GRID + ["--quiet", "--json", str(remote),
                                    "--server", server.url]) == 0
    local_rows = json.loads(local.read_text())["rows"]
    remote_rows = json.loads(remote.read_text())["rows"]
    assert local_rows == remote_rows, \
        "the service must render the identical Table-3 rows"


# -- verify --store -------------------------------------------------------------


def test_verify_store_mode_replays_clean_sessions(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = ["queue/fifo", "--seeds", "0", "1", "--strategy", "compiled",
            "--store", store_dir]
    assert verify_main(argv) == 0
    first = capsys.readouterr().out
    assert "[store]" not in first

    before = constructions()
    assert verify_main(argv + ["--min-coverage", "90"]) == 0
    second = capsys.readouterr().out
    assert constructions() == before, \
        "clean cached sessions must replay without simulating"
    assert second.count("[store]") == 2
    # Summary lines (and the merged coverage gate) match the live run.
    strip = [line.replace("  [store]", "") for line in second.splitlines()
             if "queue/fifo" in line]
    live = [line for line in first.splitlines() if "queue/fifo" in line]
    assert strip == live


def test_verify_store_mode_only_caches_matching_configs(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = ["queue/fifo", "--seeds", "0", "--strategy", "compiled",
            "--store", store_dir]
    assert verify_main(argv) == 0
    capsys.readouterr()
    # A different seed or strategy is a different session: not cached.
    assert verify_main(["queue/fifo", "--seeds", "2", "--strategy",
                        "compiled", "--store", store_dir]) == 0
    assert "[store]" not in capsys.readouterr().out
    # Back to the original spelling: cached.
    assert verify_main(argv) == 0
    assert "[store]" in capsys.readouterr().out


@pytest.mark.parametrize("cycles_flag", [[], ["--cycles", "2000"]])
def test_verify_store_keys_resolve_the_default_cycle_budget(
        tmp_path, capsys, cycles_flag):
    """--cycles 2000 and the bare default (2000) land on one store key."""
    store_dir = str(tmp_path / "store")
    assert verify_main(["queue/fifo", "--seeds", "0", "--strategy",
                        "compiled", "--store", store_dir] + cycles_flag) == 0
    capsys.readouterr()
    other = [] if cycles_flag else ["--cycles", "2000"]
    assert verify_main(["queue/fifo", "--seeds", "0", "--strategy",
                        "compiled", "--store", store_dir] + other) == 0
    assert "[store]" in capsys.readouterr().out

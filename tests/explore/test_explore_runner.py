"""Tests for the batched design-space runner: grid expansion, memoization,
strategy selection and deterministic reporting."""

from dataclasses import asdict

import pytest

from repro.explore import (
    AUTO,
    DesignPoint,
    ExplorationRunner,
    best_by,
    comparison_report,
    coverage_summary,
    expand_grid,
    is_valid_point,
    resolve_strategy,
    results_table,
)
from repro.obs.metrics import REGISTRY
from repro.rtl import COMPILED, EVENT, FIXPOINT

SMALL_GRID = dict(designs=("saa2vga",), pixel_formats=("gray8",),
                  frame_sizes=((8, 4),), capacities=(8, 16))


# -- grid expansion -------------------------------------------------------------


def test_expand_grid_cartesian_product_and_order():
    points = expand_grid(designs=("saa2vga",), pixel_formats=("gray8", "rgb24"),
                         frame_sizes=((8, 4), (12, 6)), capacities=(8, 16))
    # 2 bindings x 2 formats x 2 sizes x 2 capacities.
    assert len(points) == 16
    assert points == expand_grid(
        designs=("saa2vga",), pixel_formats=("gray8", "rgb24"),
        frame_sizes=((8, 4), (12, 6)), capacities=(8, 16)), \
        "expansion must be deterministic"
    # Nesting order: binding varies slowest among the non-design axes.
    assert [p.binding for p in points[:8]] == ["fifo"] * 8
    assert [p.binding for p in points[8:]] == ["sram"] * 8


def test_expand_grid_fills_in_supported_bindings():
    points = expand_grid(designs=("saa2vga", "blur"), frame_sizes=((8, 4),),
                         capacities=(8,))
    bindings = {(p.design, p.binding) for p in points}
    assert bindings == {("saa2vga", "fifo"), ("saa2vga", "sram"),
                        ("blur", "linebuffer")}


def test_expand_grid_drops_invalid_combinations():
    # blur never supports rgb24 pixels or the fifo binding.
    points = expand_grid(designs=("blur",), bindings=("fifo", "linebuffer"),
                         pixel_formats=("gray8", "rgb24"),
                         frame_sizes=((8, 4),), capacities=(8,))
    assert len(points) == 1
    assert points[0].binding == "linebuffer"
    assert points[0].pixel_format == "gray8"
    # A frame too small for the 3x3 window is dropped too.
    assert expand_grid(designs=("blur",), frame_sizes=((2, 2),),
                       capacities=(8,)) == []


def test_is_valid_point_reasons():
    ok, reason = is_valid_point(DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8))
    assert ok and reason is None
    for point, fragment in [
        (DesignPoint("nosuch", "fifo", "gray8", 8, 4, 8), "unknown design"),
        (DesignPoint("saa2vga", "linebuffer", "gray8", 8, 4, 8), "binding"),
        (DesignPoint("blur", "linebuffer", "rgb24", 8, 4, 8), "pixel"),
        (DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 1), "capacity"),
    ]:
        ok, reason = is_valid_point(point)
        assert not ok and fragment in reason


def test_design_hash_is_stable_and_distinct():
    a = DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8)
    b = DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8)
    c = DesignPoint("saa2vga", "sram", "gray8", 8, 4, 8)
    assert a.design_hash() == b.design_hash()
    assert a.design_hash() != c.design_hash()


# -- runner ---------------------------------------------------------------------


def test_runner_simulates_and_verifies_each_point():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    results = runner.run(points)
    assert len(results) == len(points)
    for result in results:
        assert result.verified
        assert result.cycles > 0
        assert result.outputs == 8 * 4
        assert result.luts > 0


def test_runner_memoizes_repeated_points():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    first = runner.run(points)
    assert runner.evaluations == len(points)
    assert runner.cache_hits == 0

    # Same grid again: all hits, same objects, no new simulations.
    second = runner.run(points)
    assert runner.evaluations == len(points)
    assert runner.cache_hits == len(points)
    assert [id(res) for res in second] == [id(res) for res in first]

    # Duplicates inside one call also hit the memo (after one evaluation).
    runner2 = ExplorationRunner()
    doubled = runner2.run(points + points)
    assert runner2.evaluations == len(points)
    assert runner2.cache_hits == len(points)
    assert doubled[:len(points)] == doubled[len(points):]


def test_runner_results_keep_input_order():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    reversed_results = runner.run(list(reversed(points)))
    assert [res.point for res in reversed_results] == list(reversed(points))


# -- reporting ------------------------------------------------------------------


def test_report_ordering_is_deterministic():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    forward = runner.run(points)
    backward = runner.run(list(reversed(points)))
    # Same rows, same order, regardless of evaluation/result order.
    assert results_table(forward) == results_table(backward)
    assert comparison_report(forward) == comparison_report(backward)
    report = comparison_report(forward)
    assert report.splitlines()[0] == "Design-space exploration."
    assert report.count("saa2vga") == len(points)


def test_best_by_selects_verified_extremes():
    points = expand_grid(designs=("saa2vga",), pixel_formats=("gray8",),
                         frame_sizes=((8, 4),), capacities=(8,))
    runner = ExplorationRunner()
    results = runner.run(points)
    fastest = best_by(results, lambda res: res.throughput, lowest=False)
    assert fastest.point.binding == "fifo", "FIFO binding is the fast one"
    cheapest = best_by(results, lambda res: res.luts + res.ffs)
    assert cheapest.verified


def test_best_by_rejects_empty():
    with pytest.raises(ValueError):
        best_by([], lambda res: 0)


def test_runner_rejects_bad_processes():
    with pytest.raises(ValueError):
        ExplorationRunner(processes=0)


def test_process_pool_matches_in_process_and_shares_the_store(tmp_path):
    """``processes=2`` farms misses to a JobManager pool: same results as
    an in-process run, written to the same store entries."""
    points = expand_grid(**SMALL_GRID)
    store = str(tmp_path / "store")
    before = REGISTRY.value("simulator_constructions")
    pooled = ExplorationRunner(processes=2, store=store).run(points)
    # Worker counters fold back over the pipe: the pool really simulated.
    assert REGISTRY.value("simulator_constructions") - before == len(points)
    local = ExplorationRunner().run(points)
    assert [asdict(res) for res in pooled] == [asdict(res) for res in local]

    warm = ExplorationRunner(processes=2, store=store)
    before = REGISTRY.value("simulator_constructions")
    assert warm.run(points) == local
    assert REGISTRY.value("simulator_constructions") == before
    assert warm.store_hits == len(points) and warm.evaluations == 0


def test_process_pool_raises_when_a_point_fails():
    good = expand_grid(**SMALL_GRID)[0]
    bad = DesignPoint("nosuch", "fifo", "gray8", 8, 4, 8)
    with pytest.raises(RuntimeError, match="unknown design 'nosuch'"):
        ExplorationRunner(processes=2).run([good, bad])


# -- strategy selection ----------------------------------------------------------


def test_auto_strategy_resolves_to_fastest_backend():
    assert resolve_strategy(AUTO) == COMPILED
    assert resolve_strategy(EVENT) == EVENT
    assert resolve_strategy(FIXPOINT) == FIXPOINT
    with pytest.raises(ValueError):
        resolve_strategy("levelized")
    with pytest.raises(ValueError):
        ExplorationRunner(strategy="levelized")


def test_runner_default_strategy_is_auto_and_agrees_with_event():
    points = expand_grid(**SMALL_GRID)
    auto_results = ExplorationRunner().run(points)
    event_results = ExplorationRunner(strategy=EVENT).run(points)
    for auto_res, event_res in zip(auto_results, event_results):
        assert auto_res.verified and event_res.verified
        assert auto_res.cycles == event_res.cycles
        assert auto_res.throughput == event_res.throughput


def test_memo_keys_include_strategy(tmp_path):
    """Results of one strategy are never served to another: an event and a
    compiled runner over one store each simulate, and a second event
    runner is served the event entries."""
    points = expand_grid(**SMALL_GRID)
    store = str(tmp_path / "store")
    event = ExplorationRunner(strategy=EVENT, store=store)
    event_results = event.run(points)
    assert event.evaluations == len(points)

    compiled = ExplorationRunner(strategy=COMPILED, store=store)
    compiled_results = compiled.run(points)
    assert compiled.evaluations == len(points), \
        "compiled results must not be served from the event entries"
    assert compiled.store_hits == 0
    assert [event.config.key_for(p) for p in points] != \
        [compiled.config.key_for(p) for p in points]
    # Results agree (the strategies are equivalent), but are distinct objects
    # because each was simulated under its own strategy.
    for ev, cp in zip(event_results, compiled_results):
        assert ev is not cp
        assert ev.cycles == cp.cycles

    # Back to event: the original event results are served from the store.
    again = ExplorationRunner(strategy=EVENT, store=store)
    assert again.run(points) == event_results
    assert again.store_hits == len(points) and again.evaluations == 0


def test_memo_treats_auto_and_compiled_as_the_same_key(tmp_path):
    points = expand_grid(**SMALL_GRID)
    auto = ExplorationRunner(strategy=AUTO, store=str(tmp_path / "store"))
    compiled = ExplorationRunner(strategy=COMPILED, store=auto.store)
    assert [auto.config.key_for(p) for p in points] == \
        [compiled.config.key_for(p) for p in points]
    auto.run(points)
    compiled.run(points)
    assert compiled.evaluations == 0
    assert compiled.cache_hits == compiled.store_hits == len(points)


def test_batched_strategy_resolution_and_validation():
    """``"compiled-batched"`` names no backend: it is rejected up front,
    with the valid choices named, instead of failing mid-sweep."""
    with pytest.raises(ValueError, match="one of"):
        resolve_strategy("compiled-batched")
    with pytest.raises(ValueError):
        ExplorationRunner(strategy="compiled-batched")


# -- constrained-random verification in sweeps --------------------------------


def test_sweep_with_verify_reports_coverage():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner(verify=True, verify_cycles=1200)
    results = runner.run(points)
    for res in results:
        assert res.coverage_pct is not None
        assert res.coverage_pct > 0
        assert res.coverage_violations == 0, \
            f"{res.point}: constrained-random session flagged violations"
        assert "cov%" in res.row()
        assert res.row()["cr_ok"] == "yes"
    report = comparison_report(results)
    assert "cov%" in report
    assert "functional coverage" in report


def test_verify_flag_partitions_the_memo():
    points = expand_grid(**SMALL_GRID)[:1]
    plain = ExplorationRunner()
    checked = ExplorationRunner(verify=True, verify_cycles=800)
    assert plain.run(points)[0].coverage_pct is None
    assert checked.run(points)[0].coverage_pct is not None
    # Same runner, same config: second run is served from the memo.
    checked.run(points)
    assert checked.evaluations == 1
    assert checked.cache_hits == 1
    # Different seed means a different memo key, hence a re-evaluation.
    reseeded = ExplorationRunner(verify=True, verify_cycles=800,
                                 verify_seed=5)
    reseeded.run(points)
    assert reseeded.evaluations == 1


def test_plain_sweep_rows_omit_coverage_columns():
    points = expand_grid(**SMALL_GRID)[:1]
    res = ExplorationRunner().run(points)[0]
    assert "cov%" not in res.row()
    assert "functional coverage: not collected" in coverage_summary([res])

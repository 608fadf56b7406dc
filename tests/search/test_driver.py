"""Coverage-directed search driver: closure, budget, the fewer-evals win.

The acceptance pair is ``queue/fifo`` + ``queue/sram`` at 120 cycles:
empirically the fifo target closes with seeds ``[0, 1]`` and the sram
target needs ``[0..5]``, so the feedback-free rectangular baseline must
ship a 6-seed matrix to *both* targets (12 sessions) while the search
spends per-target budget only while coverage is open (8 sessions).
"""

from types import SimpleNamespace

import pytest

from repro.explore.grid import DesignPoint
from repro.search.driver import (
    CoverageSearch,
    ParetoFrontier,
    SearchConfig,
    grid_baseline,
    propose_seeds,
    run_search,
)

ACCEPTANCE_TARGETS = ("queue/fifo", "queue/sram")
ACCEPTANCE_CYCLES = 120


@pytest.fixture(scope="module")
def acceptance():
    """One shared acceptance run: search then the grid baseline, priced
    off the same evaluator (already-searched sessions replay from the
    memo, so the whole module costs ~8 simulations)."""
    config = SearchConfig(targets=ACCEPTANCE_TARGETS, budget=20,
                          cycles=ACCEPTANCE_CYCLES, seed=0)
    search = CoverageSearch(config)
    report = search.run()
    baseline = grid_baseline(config, evaluator=search.evaluator)
    return config, search, report, baseline


# -- config validation -----------------------------------------------------

def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SearchConfig(targets=())
    with pytest.raises(ValueError):
        SearchConfig(targets=("no/such/target",))
    with pytest.raises(ValueError):
        SearchConfig(targets=("queue/fifo",), budget=0)
    with pytest.raises(ValueError):
        SearchConfig(targets=("queue/fifo",), batch=0)
    with pytest.raises(ValueError):
        SearchConfig(targets=("queue/fifo",), strategy="compiled-batched")


def test_config_to_dict_resolves_per_target_cycles():
    config = SearchConfig(targets=("queue/fifo",), cycles=None)
    data = config.to_dict()
    assert data["cycles"]["queue/fifo"] > 0


# -- closure and budget ----------------------------------------------------

def test_search_closes_both_acceptance_targets(acceptance):
    _, _, report, _ = acceptance
    assert report.closed and report.ok
    assert report.coverage["queue/fifo"] == pytest.approx(100.0)
    assert report.coverage["queue/sram"] == pytest.approx(100.0)
    assert report.unhit == []
    assert report.violations == []


def test_search_spends_budget_only_while_coverage_is_open(acceptance):
    _, _, report, _ = acceptance
    assert report.sessions == 8
    assert report.seed_trajectory("queue/fifo") == [0, 1]
    assert report.seed_trajectory("queue/sram") == [0, 1, 2, 3, 4, 5]


def test_search_beats_the_rectangular_grid_baseline(acceptance):
    """The acceptance criterion: 100% closure on >= 2 registered targets
    in strictly fewer evaluations than grid x seed enumeration."""
    _, _, report, baseline = acceptance
    assert baseline["closed"]
    assert baseline["matrix_seeds"] == 6         # worst target: queue/sram
    assert baseline["sessions"] == 12            # 2 targets x 6 seeds
    assert report.closed
    assert report.sessions < baseline["sessions"]


def test_grid_baseline_prices_per_target_closure(acceptance):
    _, _, _, baseline = acceptance
    per = baseline["per_target"]
    assert per["queue/fifo"]["seeds"] == 2
    assert per["queue/sram"]["seeds"] == 6
    assert all(info["closed"] and info["coverage"] == pytest.approx(100.0)
               for info in per.values())


def test_budget_exhaustion_reports_open_goals():
    config = SearchConfig(targets=("queue/sram",), budget=2,
                          cycles=ACCEPTANCE_CYCLES)
    report = run_search(config)
    assert report.sessions == 2
    assert not report.closed and not report.ok
    assert report.unhit                          # names what stayed open
    assert 0.0 < report.coverage["queue/sram"] < 100.0


def test_report_json_carries_format_and_trajectory(acceptance):
    _, _, report, _ = acceptance
    data = report.to_dict()
    assert data["format"] == "repro-search-v1"
    assert data["sessions"] == 8
    assert len(data["rounds"]) == 8              # batch=1: one each
    for entry in data["rounds"]:
        assert entry["target"] in ACCEPTANCE_TARGETS
        for proposal in entry["proposals"]:
            assert proposal["source"] in ("sim", "memo", "store")
            assert proposal["ok"] is True
    assert "targets" in data["bandits"]
    assert report.summary().startswith("search: 8 session(s)")


def test_every_target_bandit_gets_a_fair_first_trial(acceptance):
    _, _, report, _ = acceptance
    pulls = {t: stats["pulls"]
             for t, stats in report.bandits["targets"].items()}
    assert all(pulls[t] > 0 for t in ACCEPTANCE_TARGETS)


def test_warm_state_search_performs_no_sessions(acceptance):
    """Re-searching with the already-closed coverage DB as warm fitness
    state finds nothing open and spends nothing."""
    config, search, _, _ = acceptance
    warm = CoverageSearch(config, evaluator=search.evaluator,
                          state=search.state)
    report = warm.run()
    assert report.sessions == 0
    assert report.closed


# -- the seed-proposal API -------------------------------------------------

def test_propose_seeds_returns_exactly_count_distinct_seeds():
    seeds = propose_seeds("queue/fifo", 4, cycles=ACCEPTANCE_CYCLES)
    assert len(seeds) == len(set(seeds)) == 4
    # Closure stops the real search after [0, 1]; scan-padding tops up.
    assert seeds == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        propose_seeds("queue/fifo", 0)


# -- Pareto frontier (pure, no simulation) ---------------------------------

def fake_result(throughput, luts, ffs, capacity=4):
    return SimpleNamespace(
        point=DesignPoint("saa2vga", "fifo", "gray8", 8, 8, capacity),
        throughput=throughput, luts=luts, ffs=ffs, brams=0,
        fmax_mhz=100.0, power_mw=1.0)


def test_frontier_keeps_non_dominated_points_only():
    frontier = ParetoFrontier()
    assert frontier.consider(fake_result(1.0, 100, 50, capacity=4))
    # Strictly better on both objectives: evicts the first.
    assert frontier.consider(fake_result(2.0, 80, 40, capacity=8))
    assert len(frontier) == 1
    # Dominated (slower and larger): rejected.
    assert not frontier.consider(fake_result(1.5, 90, 45, capacity=16))
    # Trade-off (slower but smaller): joins.
    assert frontier.consider(fake_result(1.5, 30, 20, capacity=32))
    assert len(frontier) == 2


def test_frontier_entries_sorted_fastest_first():
    frontier = ParetoFrontier()
    frontier.consider(fake_result(1.0, 30, 20, capacity=4))
    frontier.consider(fake_result(2.0, 80, 40, capacity=8))
    labels = [entry["throughput"] for entry in frontier.entries()]
    assert labels == [2.0, 1.0]
    assert frontier.entries()[0]["area"] == 120


def test_equal_fitness_does_not_evict():
    frontier = ParetoFrontier()
    assert frontier.consider(fake_result(1.0, 50, 50, capacity=4))
    assert frontier.consider(fake_result(1.0, 60, 40, capacity=8))
    assert len(frontier) == 2

"""Store interplay: a warm re-search performs zero simulations.

The evaluator's three-level lookup (memo -> :class:`ResultStore` ->
simulation) shares the exact ``verify_key`` identity the verify CLI
and the sweep service use, so a second search over a warm store must
replay every proposal — provable both with ``repro.rtl.instrument``
simulation counters and the ``search_store_hits`` metric.
"""

import pytest

from repro.obs.metrics import REGISTRY
from repro.rtl import instrument
from repro.search.driver import CoverageSearch, SearchConfig
from repro.search.state import SessionEvaluator, resolved_cycles
from repro.serve.records import verify_key
from repro.serve.store import ResultStore

CONFIG = dict(targets=("queue/fifo",), budget=4, cycles=120, seed=0)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_warm_store_research_performs_zero_simulations(store):
    cold = CoverageSearch(SearchConfig(**CONFIG), store=store)
    cold_report = cold.run()
    assert cold_report.closed and cold_report.simulated > 0

    before_sims = instrument.snapshot()
    before_hits = REGISTRY.counters().get("search_store_hits", 0)
    warm = CoverageSearch(SearchConfig(**CONFIG), store=store)
    warm_report = warm.run()

    assert instrument.simulations_since(before_sims) == 0
    assert warm_report.simulated == 0
    assert warm_report.store_hits == warm_report.sessions > 0
    assert (REGISTRY.counters()["search_store_hits"] - before_hits
            == warm_report.store_hits)
    # Same closure, same trajectory — only the session source changed.
    assert warm_report.seed_trajectory() == cold_report.seed_trajectory()
    assert warm_report.coverage == cold_report.coverage
    sources = [p["source"] for entry in warm_report.rounds
               for p in entry["proposals"]]
    assert set(sources) == {"store"}


def test_repeat_proposals_within_one_search_hit_the_memo():
    evaluator = SessionEvaluator(cycles=120)
    first = evaluator.evaluate("queue/fifo", [0, 1])
    again = evaluator.evaluate("queue/fifo", [1, 0])
    assert [source for _, _, source in first] == ["sim", "sim"]
    assert [source for _, _, source in again] == ["memo", "memo"]
    assert evaluator.simulated == 2 and evaluator.memo_hits == 2
    # Identical records regardless of source.
    assert dict((s, r) for s, r, _ in first)[0] == \
        dict((s, r) for s, r, _ in again)[0]


def test_evaluator_keys_match_the_verify_cli_identity(store):
    evaluator = SessionEvaluator(cycles=120, store=store)
    evaluator.evaluate("queue/fifo", [0])
    key = verify_key("queue/fifo", 0,
                     resolved_cycles("queue/fifo", 120), "compiled")
    assert evaluator.key("queue/fifo", 0) == key
    record = store.get(key)
    assert record is not None and record["result"]["ok"]


def test_failing_sessions_are_never_persisted(tmp_path):
    from repro.verify import mutate

    store = ResultStore(tmp_path / "store")
    evaluator = SessionEvaluator(cycles=800, store=store)
    with mutate.inject("fifo.stale_dout"):
        results = evaluator.evaluate("queue/fifo", [0])
    assert not results[0][1]["result"]["ok"]
    assert store.get(evaluator.key("queue/fifo", 0)) is None

"""Session-loop fast paths: one span per session, outcomes pinned.

``tests/verify/golden/coverage_seeds_0_1_2.json`` is the merged coverage of
``python -m repro.verify --seeds 0 1 2 --min-coverage 100 --json PATH``
written before the session loop, the clean-settle skip, the coverage memo
and the drivers' single strobe release went in; CI compares the whole
matrix against it byte for byte.  The tests here re-run the targets whose
drivers or samplers those changes touch and compare their groups.
"""

import json
from pathlib import Path

import pytest

from repro.obs import tracing
from repro.verify import CoverageDB, verify

GOLDEN = Path(__file__).parent / "golden" / "coverage_seeds_0_1_2.json"


@pytest.fixture
def traced():
    tracing.disable()
    tracing.drain()
    yield
    tracing.disable()
    tracing.drain()


def traced_session(cycles):
    tracing.enable()
    try:
        result = verify("queue/fifo", seed=3, cycles=cycles)
    finally:
        tracing.disable()
    return result, tracing.drain()


def test_traced_session_records_one_span_per_session_not_per_cycle(traced):
    verify("queue/fifo", seed=3, cycles=10)  # warm the recipe cache
    short, short_records = traced_session(100)
    long, long_records = traced_session(1000)
    names = sorted(r["name"] for r in short_records)
    assert names == sorted(r["name"] for r in long_records)
    assert "settle" not in names
    sessions = [r for r in long_records if r["name"] == "verify.session"]
    assert len(sessions) == 1
    assert sessions[0]["args"] == {"target": "queue/fifo", "seed": 3,
                                   "cycles": 1000,
                                   "transactions": long.transactions}
    assert short.transactions < long.transactions


@pytest.mark.parametrize("target", ["queue/fifo", "vector/bram",
                                    "assoc_array/cam", "arbiter/roundrobin"])
def test_sessions_reproduce_the_golden_coverage(target):
    golden = json.loads(GOLDEN.read_text())["groups"][target]
    db = CoverageDB()
    for seed in (0, 1, 2):
        result = verify(target, seed=seed)
        assert result.ok
        db.add(result.coverage)
    assert db.groups[target] == golden

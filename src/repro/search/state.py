"""Persistent fitness state and memoized session evaluation.

The search driver's fitness state is a merged
:class:`~repro.verify.coverage.CoverageDB` — the same
``repro-coverage-v1`` JSON the verify CLI writes — plus, for the design-
axes mode, a Pareto-frontier JSON.  :class:`SearchState` owns loading and
saving both under one directory, so interrupted or repeated searches
resume from what is already closed instead of re-earning it.

:class:`SessionEvaluator` is the driver's only path to simulation.  Every
(target, seed) proposal goes through a three-level lookup:

1. the in-process memo (repeat proposals inside one search are free),
2. the optional persistent :class:`~repro.serve.store.ResultStore`, under
   the exact :func:`~repro.serve.records.verify_key` identity the verify
   CLI and the sweep service use — a warm store re-search performs zero
   simulations (the store-interplay test pins this via
   ``repro.rtl.instrument``),
3. one scalar :func:`~repro.verify.session.verify` session per seed
   still uncached.

Clean sessions are written back; failing sessions are never cached,
matching the verify CLI's policy.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import REGISTRY as _REGISTRY
from ..rtl import COMPILED
from ..verify.coverage import CoverageDB
from ..verify.session import TARGETS, verify_matrix

#: File names inside a ``--state`` directory.
COVERAGE_FILE = "coverage.json"
FRONTIER_FILE = "frontier.json"


def resolved_cycles(target: str, cycles: Optional[int]) -> int:
    """The cycle budget a session actually runs (store keys need this)."""
    if cycles is not None:
        return int(cycles)
    return TARGETS[target].default_cycles


class SearchState:
    """Fitness-state directory: merged coverage + frontier artifacts."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.db = CoverageDB()
        if path is not None:
            os.makedirs(path, exist_ok=True)
            coverage = os.path.join(path, COVERAGE_FILE)
            if os.path.exists(coverage):
                with open(coverage, "r", encoding="utf-8") as fh:
                    self.db = CoverageDB.from_json(fh.read())

    def save(self, frontier_json: Optional[str] = None) -> None:
        """Write the merged coverage (and optionally the frontier) back."""
        if self.path is None:
            return
        with open(os.path.join(self.path, COVERAGE_FILE), "w",
                  encoding="utf-8") as fh:
            fh.write(self.db.to_json())
        if frontier_json is not None:
            with open(os.path.join(self.path, FRONTIER_FILE), "w",
                      encoding="utf-8") as fh:
                fh.write(frontier_json)


class SessionEvaluator:
    """Memoized, store-backed evaluation of (target, seed) proposals."""

    def __init__(self, cycles: Optional[int] = None,
                 strategy: str = COMPILED, store=None,
                 strict: bool = False) -> None:
        self.cycles = cycles
        self.strategy = strategy
        if store is not None and not hasattr(store, "get"):
            from ..serve.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.strict = strict
        self._memo: Dict[str, dict] = {}
        #: Sessions served from the in-process memo.
        self.memo_hits = 0
        #: Sessions served from the persistent store.
        self.store_hits = 0
        #: Sessions that actually built a simulator.
        self.simulated = 0

    def key(self, target: str, seed: int) -> str:
        from ..serve.records import verify_key

        return verify_key(target, seed, resolved_cycles(target, self.cycles),
                          self.strategy)

    def evaluate(self, target: str, seeds: List[int]
                 ) -> List[Tuple[int, dict, str]]:
        """Verify-session records for ``seeds``, cheapest source first.

        Returns ``[(seed, record, source), ...]`` in the input seed order,
        where ``source`` is ``"memo"``, ``"store"`` or ``"sim"`` and
        ``record`` is the :func:`~repro.serve.records.verify_record` dict
        (its ``result.coverage_group`` merges straight into a
        :class:`~repro.verify.coverage.CoverageDB`).  Uncached seeds run
        one session each; only clean fresh sessions are persisted.
        """
        from ..serve.records import record_matches, verify_record

        out: Dict[int, Tuple[dict, str]] = {}
        fresh: List[int] = []
        for seed in seeds:
            key = self.key(target, seed)
            record = self._memo.get(key)
            if record is not None:
                self.memo_hits += 1
                _REGISTRY.inc("search_memo_hits")
                out[seed] = (record, "memo")
                continue
            if self.store is not None:
                record = self.store.get(key)
                if record_matches(record, "verify"):
                    self._memo[key] = record
                    self.store_hits += 1
                    _REGISTRY.inc("search_store_hits")
                    out[seed] = (record, "store")
                    continue
            fresh.append(seed)
        if fresh:
            results = verify_matrix(target, fresh, cycles=self.cycles,
                                    strategy=self.strategy,
                                    strict=self.strict)
            self.simulated += len(fresh)
            _REGISTRY.inc("search_simulated", len(fresh))
            for result in results:
                key = self.key(target, result.seed)
                record = verify_record(result, key)
                self._memo[key] = record
                if self.store is not None and result.ok:
                    self.store.put(key, record)
                out[result.seed] = (record, "sim")
        return [(seed, out[seed][0], out[seed][1]) for seed in seeds]

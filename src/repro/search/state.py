"""Persistent fitness state of the search driver.

The search driver's fitness state is a merged
:class:`~repro.verify.coverage.CoverageDB` — the same
``repro-coverage-v1`` JSON the verify CLI writes — plus, for the design-
axes mode, a Pareto-frontier JSON.  :class:`SearchState` owns loading and
saving both under one directory, so interrupted or repeated searches
resume from what is already closed instead of re-earning it.

The driver's only path to simulation is
:class:`~repro.verify.session.SessionEvaluator` (memo → store →
simulate), which lives beside the sessions it runs and is re-exported
here with :func:`~repro.verify.session.resolved_cycles`.
"""

from __future__ import annotations

import os
from typing import Optional

from ..verify.coverage import CoverageDB
from ..verify.session import SessionEvaluator, resolved_cycles

__all__ = ["SearchState", "SessionEvaluator", "resolved_cycles"]

#: File names inside a ``--state`` directory.
COVERAGE_FILE = "coverage.json"
FRONTIER_FILE = "frontier.json"


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

"""Coverage-directed search: close the verify→explore feedback loop.

``repro.verify`` reports covergroup closure and ``repro.explore``
enumerates grids; this package feeds the first back into the second.  A
budgeted driver proposes (target, stimulus seed) and design-point
candidates, evaluates them through the existing verify/runner paths,
and spends the remaining budget where coverage is still open — rewarding
marginal bin/cross closure and Pareto improvement on
(throughput × synth area).

Layers:

* :mod:`~repro.search.bandit` — deterministic epsilon-greedy arm
  selection (targets, proposal operators).
* :mod:`~repro.search.propose` — scan/mutate/crossover proposers for
  stimulus seeds and design axes.
* :mod:`~repro.search.state` — persistent CoverageDB fitness state and
  the memoized, store-backed session evaluator.
* :mod:`~repro.search.driver` — the search loop, the grid baseline it is
  gated against, and the Pareto design-axes search.

CLI: ``python -m repro.search`` (see :mod:`repro.search.__main__` and
``docs/search.md``).
"""

from .bandit import BanditError, EpsilonGreedy
from .driver import (
    FRONTIER_FORMAT,
    SEARCH_FORMAT,
    CoverageSearch,
    FrontierReport,
    ParetoFrontier,
    SearchConfig,
    SearchReport,
    design_search,
    grid_baseline,
    propose_seeds,
    run_search,
)
from .propose import DesignProposer, SeedProposer
from .state import SearchState, SessionEvaluator

__all__ = [
    "BanditError", "EpsilonGreedy",
    "FRONTIER_FORMAT", "SEARCH_FORMAT",
    "CoverageSearch", "FrontierReport", "ParetoFrontier",
    "SearchConfig", "SearchReport",
    "design_search", "grid_baseline", "propose_seeds", "run_search",
    "DesignProposer", "SeedProposer",
    "SearchState", "SessionEvaluator",
]

"""The budgeted coverage-directed search driver.

Closes the verify→explore feedback loop the ROADMAP left open: instead of
running a fixed rectangular seed matrix (every target × every seed), the
driver *allocates* the simulation budget one proposal at a time —

1. an epsilon-greedy bandit picks the covergroup target whose proposals
   have been closing the most goals (among targets still below
   ``min_coverage``);
2. that target's :class:`~repro.search.propose.SeedProposer` picks the
   next stimulus seeds (scan / mutate / crossover, themselves under an
   operator bandit);
3. the proposals run through the memoized, store-backed
   :class:`~repro.search.state.SessionEvaluator` (one scalar verify
   session per fresh seed);
4. each session's covergroup merges into the persistent
   :class:`~repro.verify.coverage.CoverageDB` fitness state, and the
   *marginal* goals it closed (:meth:`CoverageDB.add_delta`) are the
   reward fed back to both bandits.

The loop stops at closure or budget exhaustion.  Everything stochastic
draws from one :class:`~repro.verify.rng.RngPool`, so a root seed fixes
the entire proposal trajectory — byte for byte, across runs and across
fork-pool workers (``tests/search/test_determinism.py``).

:func:`grid_baseline` prices the alternative this driver replaces: a
feedback-free sweep must ship one rectangular matrix ``targets × seeds``
sized for its *worst* target, so its cost is ``len(targets) * max(seeds
needed per target)`` sessions.  The CI ``search-smoke`` job gates that
search closes the same coverage in strictly fewer sessions.

:func:`design_search` is the Pareto half of the tentpole: the same
bandit/proposer machinery over :class:`~repro.explore.grid.DesignPoint`
axes, evaluated through an :class:`~repro.explore.runner.ExplorationRunner`
(memo/store reuse included), rewarding frontier acceptance on
(throughput ↑, synth area ↓).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import tracing as _obs_tracing
from ..obs.metrics import REGISTRY as _REGISTRY
from ..rtl import COMPILED, STRATEGIES
from ..verify.coverage import CoverageDB
from ..verify.rng import RngPool
from ..verify.session import TARGETS
from .bandit import EpsilonGreedy
from .propose import DesignProposer, SeedProposer
from .state import SearchState, SessionEvaluator, resolved_cycles

#: Artifact format tags (sorted-key JSON, no timestamps: byte-identical
#: across runs is a tested property, not an aspiration).
SEARCH_FORMAT = "repro-search-v1"
FRONTIER_FORMAT = "repro-frontier-v1"


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a coverage search's trajectory."""

    targets: Tuple[str, ...]
    budget: int = 32
    cycles: Optional[int] = None
    seed: int = 0
    strategy: str = COMPILED
    #: Proposals per round: the target bandit picks once per round, and
    #: every proposal in it is rewarded against that one pick.
    batch: int = 1
    epsilon: float = 0.1
    min_coverage: float = 100.0

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("a search needs at least one target")
        unknown = [t for t in self.targets if t not in TARGETS]
        if unknown:
            raise ValueError(f"unknown target(s) {unknown}; "
                             f"known: {sorted(TARGETS)}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {STRATEGIES}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "targets": list(self.targets),
            "budget": self.budget,
            "cycles": {t: resolved_cycles(t, self.cycles)
                       for t in self.targets},
            "seed": self.seed,
            "strategy": self.strategy,
            "batch": self.batch,
            "epsilon": self.epsilon,
            "min_coverage": self.min_coverage,
        }


@dataclass
class SearchReport:
    """Outcome of one coverage search (JSON: ``repro-search-v1``)."""

    config: SearchConfig
    rounds: List[dict] = field(default_factory=list)
    sessions: int = 0
    simulated: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    coverage: Dict[str, float] = field(default_factory=dict)
    unhit: List[str] = field(default_factory=list)
    closed: bool = False
    violations: List[str] = field(default_factory=list)
    bandits: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.closed and not self.violations

    def seed_trajectory(self, target: Optional[str] = None):
        """Evaluated seeds in proposal order, per target or for one."""
        trajectories: Dict[str, List[int]] = {t: [] for t in
                                              self.config.targets}
        for entry in self.rounds:
            for proposal in entry["proposals"]:
                trajectories[entry["target"]].append(proposal["seed"])
        if target is not None:
            return trajectories[target]
        return trajectories

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": SEARCH_FORMAT,
            "config": self.config.to_dict(),
            "rounds": self.rounds,
            "sessions": self.sessions,
            "simulated": self.simulated,
            "memo_hits": self.memo_hits,
            "store_hits": self.store_hits,
            "coverage": {t: round(pct, 4)
                         for t, pct in self.coverage.items()},
            "unhit": self.unhit,
            "closed": self.closed,
            "violations": self.violations,
            "bandits": self.bandits,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [f"search: {self.sessions} session(s) "
                 f"({self.simulated} simulated, {self.memo_hits} memo, "
                 f"{self.store_hits} store) over "
                 f"{len(self.config.targets)} target(s); "
                 f"closed={'yes' if self.closed else 'NO'}"]
        for target in self.config.targets:
            seeds = self.seed_trajectory(target)
            lines.append(f"  {target:<24} cov={self.coverage[target]:5.1f}% "
                         f"seeds={seeds}")
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
        return "\n".join(lines)


class CoverageSearch:
    """One budgeted coverage-directed search (see the module docstring).

    Parameters
    ----------
    config:
        The immutable search identity; equal configs (and equal warm
        state) produce byte-identical reports.
    store:
        Optional persistent result store (path or
        :class:`~repro.serve.store.ResultStore`) shared with the verify
        CLI and the sweep service — repeat proposals cost zero
        simulations across processes.
    state:
        Optional :class:`~repro.search.state.SearchState` carrying warm
        fitness coverage (goals already closed earn no reward again).
    on_round:
        Optional callback invoked with each round's trajectory entry —
        the serve layer streams these through the job event log.
    """

    def __init__(self, config: SearchConfig, store=None,
                 state: Optional[SearchState] = None,
                 evaluator: Optional[SessionEvaluator] = None,
                 on_round: Optional[Callable[[dict], None]] = None) -> None:
        self.config = config
        self.state = state if state is not None else SearchState(None)
        self.db: CoverageDB = self.state.db
        self.evaluator = evaluator if evaluator is not None else \
            SessionEvaluator(cycles=config.cycles, strategy=config.strategy,
                             store=store)
        self.on_round = on_round
        pool = RngPool(config.seed)
        self.target_bandit = EpsilonGreedy(
            config.targets, epsilon=config.epsilon,
            rng=pool.stream("search.targets"))
        self.proposers: Dict[str, SeedProposer] = {
            target: SeedProposer(target,
                                 pool.stream(f"search.seeds.{target}"),
                                 epsilon=config.epsilon)
            for target in config.targets}

    def coverage(self, target: str) -> float:
        """Merged coverage of one target (0.0 before its first session)."""
        if target not in self.db.groups:
            return 0.0
        return self.db.percent(target)

    def open_targets(self) -> List[str]:
        return [t for t in self.config.targets
                if self.coverage(t) < self.config.min_coverage]

    def run(self) -> SearchReport:
        config = self.config
        report = SearchReport(config=config)
        round_no = 0
        while report.sessions < config.budget:
            open_targets = self.open_targets()
            if not open_targets:
                break
            target = self.target_bandit.select(open_targets)
            proposer = self.proposers[target]
            count = min(config.batch, config.budget - report.sessions)
            batch = proposer.propose_batch(count)
            with _obs_tracing.span("search.round", round=round_no,
                                   target=target, proposals=count):
                evaluated = self.evaluator.evaluate(
                    target, [seed for seed, _ in batch])
                proposals = []
                round_gain = accepted = 0
                for (seed, op), (_, record, source) in zip(batch, evaluated):
                    payload = record["result"]
                    closed = self.db.add_delta(payload["coverage_group"])
                    gain = len(closed)
                    proposer.update(seed, op, gain)
                    self.target_bandit.update(target, gain)
                    if not payload["ok"]:
                        report.violations.extend(payload["violations"])
                    round_gain += gain
                    accepted += 1 if gain else 0
                    proposals.append({"seed": seed, "op": op,
                                      "source": source, "gain": gain,
                                      "closed": closed,
                                      "ok": payload["ok"]})
                report.sessions += count
                _obs_tracing.add_event("search.gain", target=target,
                                       gain=round_gain)
            _REGISTRY.inc("search_rounds")
            _REGISTRY.inc("search_proposals", count)
            _REGISTRY.inc("search_accepted", accepted)
            _REGISTRY.inc("search_coverage_gain", round_gain)
            _REGISTRY.inc("search_sessions", count)
            entry = {
                "round": round_no,
                "target": target,
                "proposals": proposals,
                "coverage": round(self.coverage(target), 4),
                "open_goals": len(self.db.open_goals(target)),
                "sessions": report.sessions,
            }
            report.rounds.append(entry)
            if self.on_round is not None:
                self.on_round(entry)
            round_no += 1
        report.simulated = self.evaluator.simulated
        report.memo_hits = self.evaluator.memo_hits
        report.store_hits = self.evaluator.store_hits
        report.coverage = {t: self.coverage(t) for t in config.targets}
        report.unhit = self.db.unhit()
        report.closed = not self.open_targets()
        report.bandits = {
            "targets": self.target_bandit.snapshot(),
            "operators": {t: p.ops.snapshot()
                          for t, p in self.proposers.items()},
        }
        return report


def run_search(config: SearchConfig, store=None,
               state: Optional[SearchState] = None,
               on_round: Optional[Callable[[dict], None]] = None
               ) -> SearchReport:
    """Build a :class:`CoverageSearch` and run it (the one-call form)."""
    return CoverageSearch(config, store=store, state=state,
                          on_round=on_round).run()


def grid_baseline(config: SearchConfig,
                  evaluator: Optional[SessionEvaluator] = None,
                  max_seeds: int = 64) -> Dict[str, object]:
    """Price the feedback-free alternative: the rectangular seed matrix.

    Without coverage feedback, a sweep must commit to one seed list up
    front and run *every* target over it; closing every target therefore
    needs the matrix to be as long as the **worst** target's closure
    demands.  Per target this enumerates seeds ``0, 1, 2, …`` (merging
    into a fresh :class:`CoverageDB` each — the baseline gets no cross-
    target credit) until closure; the matrix cost is
    ``len(targets) * max(per-target seeds)``.

    Sharing ``evaluator`` with a finished search makes the baseline cheap
    to *price* — already-searched sessions replay from the memo — without
    changing what it *costs*: ``sessions`` counts the full rectangle.
    """
    evaluator = evaluator if evaluator is not None else SessionEvaluator(
        cycles=config.cycles, strategy=config.strategy)
    per_target: Dict[str, dict] = {}
    for target in config.targets:
        db = CoverageDB()
        used = 0
        closed = False
        for seed in range(max_seeds):
            _, record, _ = evaluator.evaluate(target, [seed])[0]
            db.add(record["result"]["coverage_group"])
            used += 1
            if db.percent(target) >= config.min_coverage:
                closed = True
                break
        per_target[target] = {"seeds": used, "closed": closed,
                              "coverage": round(db.percent(target), 4)}
    matrix_seeds = max(info["seeds"] for info in per_target.values())
    return {
        "per_target": per_target,
        "matrix_seeds": matrix_seeds,
        "sessions": len(config.targets) * matrix_seeds,
        "closed": all(info["closed"] for info in per_target.values()),
    }


def propose_seeds(target: str, count: int, seed: int = 0,
                  cycles: Optional[int] = None,
                  strategy: str = COMPILED) -> List[int]:
    """The first ``count`` stimulus seeds search proposes for one target.

    Runs a real coverage search (budget ``count``) against the healthy
    design and returns its seed trajectory; if closure stops the search
    early the list is padded by the ``scan`` operator's enumeration, so
    callers always get exactly ``count`` distinct seeds.  This is the
    seed-proposal API the mutation-escape test drives: the seeds a
    fault-free search would spend its budget on must catch every seeded
    fault the fixed matrix catches.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    config = SearchConfig(targets=(target,), budget=count, cycles=cycles,
                          seed=seed, strategy=strategy)
    search = CoverageSearch(config)
    search.run()
    seeds = list(search.proposers[target].proposed)
    pad = 0
    while len(seeds) < count:
        if pad not in seeds:
            seeds.append(pad)
        pad += 1
    return seeds[:count]


# ---------------------------------------------------------------------------
# Design-axes Pareto search
# ---------------------------------------------------------------------------


class ParetoFrontier:
    """Non-dominated set on (throughput max, synth area min)."""

    def __init__(self) -> None:
        self._entries: List[dict] = []

    @staticmethod
    def fitness(result) -> Dict[str, float]:
        """The two objectives of one exploration result."""
        return {"throughput": result.throughput,
                "area": result.luts + result.ffs}

    @staticmethod
    def _dominates(a: dict, b: dict) -> bool:
        return (a["throughput"] >= b["throughput"]
                and a["area"] <= b["area"]
                and (a["throughput"] > b["throughput"]
                     or a["area"] < b["area"]))

    def consider(self, result) -> bool:
        """Accept ``result`` if no current member dominates it."""
        cand = {
            "point": asdict(result.point),
            "label": result.point.label(),
            **self.fitness(result),
            "luts": result.luts,
            "ffs": result.ffs,
            "brams": result.brams,
            "fmax_mhz": result.fmax_mhz,
            "power_mw": result.power_mw,
        }
        if any(self._dominates(entry, cand) for entry in self._entries):
            return False
        self._entries = [entry for entry in self._entries
                         if not self._dominates(cand, entry)]
        self._entries.append(cand)
        return True

    def entries(self) -> List[dict]:
        """Frontier members, fastest first (ties: smaller area, label)."""
        return sorted(self._entries,
                      key=lambda e: (-e["throughput"], e["area"],
                                     e["label"]))

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class FrontierReport:
    """Outcome of one design-axes search (JSON: ``repro-frontier-v1``)."""

    budget: int
    seed: int
    evaluations: int
    frontier: List[dict]
    trajectory: List[dict]
    operators: Dict[str, object]
    exhausted: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FRONTIER_FORMAT,
            "objectives": {"throughput": "max", "area": "min"},
            "budget": self.budget,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "frontier": self.frontier,
            "trajectory": self.trajectory,
            "operators": self.operators,
            "exhausted": self.exhausted,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def design_search(budget: int, seed: int = 0, runner=None, store=None,
                  designs: Sequence[str] = ("saa2vga", "blur"),
                  bindings: Optional[Sequence[str]] = None,
                  pixel_formats: Sequence[str] = ("gray8",),
                  frame_sizes: Sequence[Tuple[int, int]] = ((8, 8), (16, 12)),
                  capacities: Sequence[int] = (4, 8, 16),
                  epsilon: float = 0.2,
                  on_round: Optional[Callable[[dict], None]] = None
                  ) -> FrontierReport:
    """Budgeted mutation/crossover search over design axes.

    Each proposal is evaluated through ``runner``
    (an :class:`~repro.explore.runner.ExplorationRunner`; one is built
    over ``store`` when omitted), so repeat proposals — within a run or
    across warm-store runs — cost zero simulations.  A point joins the
    Pareto frontier only if its directed test passed (``verified``);
    acceptance is the operator bandit's reward.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if runner is None:
        from ..explore.runner import ExplorationRunner

        runner = ExplorationRunner(store=store)
    pool = RngPool(seed)
    proposer = DesignProposer(pool.stream("search.design"), designs=designs,
                              bindings=bindings, pixel_formats=pixel_formats,
                              frame_sizes=frame_sizes, capacities=capacities,
                              epsilon=epsilon)
    frontier = ParetoFrontier()
    trajectory: List[dict] = []
    evaluations = 0
    exhausted = False
    while evaluations < budget:
        proposal = proposer.propose()
        if proposal is None:
            exhausted = True
            break
        point, op = proposal
        with _obs_tracing.span("search.round", mode="frontier",
                               round=evaluations, op=op):
            result = runner.run([point])[0]
        accepted = bool(result.verified) and frontier.consider(result)
        proposer.update(point, op, accepted)
        evaluations += 1
        _REGISTRY.inc("search_rounds")
        _REGISTRY.inc("search_proposals")
        _REGISTRY.inc("search_accepted", 1 if accepted else 0)
        entry = {
            "round": evaluations - 1,
            "op": op,
            "point": asdict(point),
            "label": point.label(),
            "accepted": accepted,
            "verified": bool(result.verified),
            **ParetoFrontier.fitness(result),
            "frontier_size": len(frontier),
        }
        trajectory.append(entry)
        if on_round is not None:
            on_round(entry)
    return FrontierReport(budget=budget, seed=seed, evaluations=evaluations,
                          frontier=frontier.entries(), trajectory=trajectory,
                          operators=proposer.ops.snapshot(),
                          exhausted=exhausted)

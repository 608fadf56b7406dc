"""Command-line entry: ``python -m repro.search``.

Runs a budgeted coverage-directed search over registered verification
targets, prints the seed trajectory and final closure, and exits non-zero
when a session flags violations, a target misses ``--min-coverage``, or —
under ``--compare-grid`` — the search fails to beat the rectangular
grid × seed baseline.  This is what the CI ``search-smoke`` job invokes.

Examples::

    python -m repro.search 'queue/fifo' 'queue/sram' --cycles 120 \
        --budget 20 --min-coverage 100 --compare-grid
    python -m repro.search 'queue/fifo' --store /var/tmp/repro-store \
        --state /var/tmp/repro-search --json-coverage coverage.json
    python -m repro.search --frontier --frontier-budget 6 \
        --designs saa2vga --capacities 4 8 --json-frontier frontier.json
"""

from __future__ import annotations

import argparse
import sys

from ..explore.spec import parse_frames
from ..obs import recording
from ..obs import tracing as _obs_tracing
from ..rtl import COMPILED, STRATEGIES
from ..verify.rng import SEED_ENV, default_seed
from ..verify.session import TARGETS
from .driver import (
    CoverageSearch,
    SearchConfig,
    design_search,
    grid_baseline,
)
from .state import SearchState


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search",
        description="Coverage-directed search over verification targets "
                    "and design axes.",
        epilog="The search spends its --budget where coverage is still "
               "open: an epsilon-greedy bandit picks the covergroup "
               "target, scan/mutate/crossover operators pick the stimulus "
               "seeds, and marginal bin/cross closure is the reward.  "
               "With --store DIR sessions persist in the same result "
               "store the verify CLI and the sweep service use, so a "
               "warm re-search performs zero simulations.  Full guide: "
               "docs/search.md.")
    parser.add_argument("targets", nargs="*",
                        help="registered verification targets to close "
                             "(see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered targets and exit")

    search = parser.add_argument_group("coverage search")
    search.add_argument("--budget", type=int, default=32, metavar="N",
                        help="maximum verification sessions to spend "
                             "(default: 32)")
    search.add_argument("--cycles", type=int, default=None,
                        help="cycle budget override (default: per-target)")
    search.add_argument("--seed", type=int, default=default_seed(),
                        help=f"root seed for every proposal draw "
                             f"(default: ${SEED_ENV} or 0)")
    search.add_argument("--strategy", default=COMPILED, choices=STRATEGIES)
    search.add_argument("--batch", type=int, default=1, metavar="N",
                        help="proposals per round, all for the one target "
                             "the bandit picked (default: 1)")
    search.add_argument("--epsilon", type=float, default=0.1,
                        help="bandit exploration rate (default: 0.1)")
    search.add_argument("--min-coverage", type=float, default=100.0,
                        metavar="PCT",
                        help="per-target closure threshold the search "
                             "drives toward (default: 100)")
    search.add_argument("--compare-grid", action="store_true",
                        help="also price the rectangular grid x seed "
                             "baseline and fail unless the search closed "
                             "in strictly fewer sessions")

    frontier = parser.add_argument_group("design-axes frontier search")
    frontier.add_argument("--frontier", action="store_true",
                          help="also run the Pareto search over design "
                               "points (throughput max, synth area min)")
    frontier.add_argument("--frontier-budget", type=int, default=8,
                          metavar="N",
                          help="design points to evaluate (default: 8)")
    frontier.add_argument("--designs", nargs="+",
                          default=["saa2vga", "blur"], metavar="NAME",
                          help="design families to search over")
    frontier.add_argument("--bindings", nargs="+", default=None,
                          metavar="NAME",
                          help="container bindings (default: all supported)")
    frontier.add_argument("--formats", nargs="+", default=["gray8"],
                          metavar="FMT", help="pixel formats")
    frontier.add_argument("--frames", nargs="+", default=["8x8", "16x12"],
                          metavar="WxH", help="stimulus frame sizes")
    frontier.add_argument("--capacities", nargs="+", type=int,
                          default=[4, 8, 16], metavar="N",
                          help="container capacities")

    state = parser.add_argument_group("persistence")
    state.add_argument("--store", metavar="DIR", default=None,
                       help="persistent result store; repeat proposals "
                            "replay from it instead of re-simulating")
    state.add_argument("--state", metavar="DIR", default=None,
                       help="fitness-state directory (merged coverage.json "
                            "+ frontier.json); warm goals earn no reward "
                            "again")

    out = parser.add_argument_group("output")
    out.add_argument("--json", metavar="PATH", default=None,
                     help="write the search report (trajectory, bandits, "
                          "closure) here")
    out.add_argument("--json-coverage", metavar="PATH", default=None,
                     help="write the merged coverage database here")
    out.add_argument("--json-frontier", metavar="PATH", default=None,
                     help="write the Pareto frontier here (implies "
                          "--frontier)")
    out.add_argument("--quiet", action="store_true",
                     help="suppress stdout summaries (exit status still "
                          "set)")

    obs = parser.add_argument_group("telemetry (docs/observability.md)")
    obs.add_argument("--trace", metavar="PATH", default=None,
                     help="record search-round spans and write them here "
                          "(.ndjson/.jsonl lines or Chrome trace JSON)")
    obs.add_argument("--profile", action="store_true",
                     help="print a per-strategy settle/compile wall-time "
                          "breakdown after the search")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name, spec in TARGETS.items():
            print(f"{name:<26} default_cycles={spec.default_cycles}")
        return 0
    if args.json_frontier is not None:
        args.frontier = True
    if not args.targets and not args.frontier:
        parser.error("name at least one target (see --list) or pass "
                     "--frontier")
    with recording(args.trace, args.profile, quiet=args.quiet):
        return _run(args)


def _run(args) -> int:
    status = 0
    state = SearchState(args.state) if args.state is not None else None
    frontier_json = None

    if args.targets:
        try:
            config = SearchConfig(
                targets=tuple(args.targets), budget=args.budget,
                cycles=args.cycles, seed=args.seed, strategy=args.strategy,
                batch=args.batch, epsilon=args.epsilon,
                min_coverage=args.min_coverage)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        search = CoverageSearch(config, store=args.store, state=state)
        with _obs_tracing.span("search.run", targets=len(config.targets),
                               budget=config.budget):
            report = search.run()
        if not args.quiet:
            print(report.summary())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            if not args.quiet:
                print(f"search report written to {args.json}")
        if args.json_coverage:
            with open(args.json_coverage, "w", encoding="utf-8") as fh:
                fh.write(search.db.to_json())
            if not args.quiet:
                print(f"merged coverage written to {args.json_coverage}")
        if report.violations:
            print(f"\nFAILED: {len(report.violations)} violation(s) during "
                  f"search sessions", file=sys.stderr)
            for violation in report.violations[:5]:
                print(f"  {violation}", file=sys.stderr)
            status = 1
        if not report.closed:
            print(f"\nFAILED: coverage below {config.min_coverage}% after "
                  f"{report.sessions} session(s)", file=sys.stderr)
            for missing in report.unhit:
                print(f"  unhit: {missing}", file=sys.stderr)
            status = 1
        if args.compare_grid:
            baseline = grid_baseline(config, evaluator=search.evaluator)
            if not args.quiet:
                print(f"grid baseline: {baseline['sessions']} session(s) "
                      f"({len(config.targets)} target(s) x "
                      f"{baseline['matrix_seeds']} seed(s)); "
                      f"search used {report.sessions}")
            beat = (report.closed
                    and (not baseline["closed"]
                         or report.sessions < baseline["sessions"]))
            if not beat:
                print(f"\nFAILED: search did not close in strictly fewer "
                      f"sessions than the grid baseline "
                      f"({report.sessions} vs {baseline['sessions']})",
                      file=sys.stderr)
                status = 1

    if args.frontier:
        try:
            frame_sizes = parse_frames(args.frames)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        freport = design_search(
            budget=args.frontier_budget, seed=args.seed, store=args.store,
            designs=args.designs, bindings=args.bindings,
            pixel_formats=args.formats, frame_sizes=frame_sizes,
            capacities=args.capacities)
        frontier_json = freport.to_json()
        if not args.quiet:
            print(f"frontier: {len(freport.frontier)} non-dominated "
                  f"point(s) from {freport.evaluations} evaluation(s)")
            for entry in freport.frontier:
                print(f"  {entry['label']:<40} "
                      f"thr={entry['throughput']:.3f} "
                      f"area={entry['area']}")
        if args.json_frontier:
            with open(args.json_frontier, "w", encoding="utf-8") as fh:
                fh.write(frontier_json)
            if not args.quiet:
                print(f"frontier written to {args.json_frontier}")

    if state is not None:
        state.save(frontier_json=frontier_json)
        if not args.quiet:
            print(f"fitness state saved to {args.state}")
    return status


if __name__ == "__main__":
    sys.exit(main())

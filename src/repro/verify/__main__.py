"""Command-line entry: ``python -m repro.verify``.

Runs constrained-random verification sessions over a seed matrix, prints a
per-session summary, optionally writes the merged coverage database to
JSON, and exits non-zero — printing the reproducing command — when a
session flags violations or the merged coverage misses ``--min-coverage``.
This is what the CI ``randomized-verification`` job invokes.
"""

from __future__ import annotations

import argparse
import sys

from ..obs import recording
from ..rtl import COMPILED, STRATEGIES
from .coverage import CoverageDB
from .rng import SEED_ENV, default_seed
from .session import TARGETS, SessionEvaluator, repro_command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Constrained-random verification of the pattern library.",
        epilog="With --store DIR, clean sessions persist in the same "
               "content-addressed result store the exploration service uses "
               "(keyed by target x seed x cycles x strategy); a re-run of "
               "an already-clean matrix replays summaries and coverage from "
               "the store without simulating.  Failing sessions are never "
               "cached — they always re-run and print their reproduction "
               "command.  Full operator guide: docs/exploration.md.")
    parser.add_argument("targets", nargs="*",
                        help="target names (default: every registered target)")
    parser.add_argument("--list", action="store_true",
                        help="list registered targets and exit")
    # The default honours $REPRO_SEED so the printed reproduction commands
    # (session.repro_command) replay the failing seed, not seed 0.
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[default_seed()],
                        help=f"root seeds to run (default: ${SEED_ENV} or 0)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycle budget override (default: per-target)")
    parser.add_argument("--strategy", default=COMPILED, choices=STRATEGIES)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the merged coverage database here")
    parser.add_argument("--min-coverage", type=float, default=None, metavar="PCT",
                        help="fail if any target's merged coverage is below PCT")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result store; clean sessions are "
                             "replayed from it instead of re-simulating")
    parser.add_argument("--profile", action="store_true",
                        help="after the matrix, print its phase table and "
                             "compile counts (docs/observability.md)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list:
        for name, spec in TARGETS.items():
            print(f"{name:<26} default_cycles={spec.default_cycles}")
        return 0

    with recording(profiling=args.profile):
        return _run(args)


def _run(args) -> int:
    names = args.targets or list(TARGETS)
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown target(s): {unknown}; see --list", file=sys.stderr)
        return 2

    from ..serve.records import verify_summary_line

    evaluator = SessionEvaluator(cycles=args.cycles, strategy=args.strategy,
                                 store=args.store)
    db = CoverageDB()
    failures = []
    for name in names:
        for seed, record, source in evaluator.evaluate(name, args.seeds):
            payload = record["result"]
            db.add(payload["coverage_group"])
            print(verify_summary_line(
                record, suffix="  [store]" if source == "store" else ""))
            if not payload["ok"]:
                failures.append(seed)
                for violation in payload["violations"][:5]:
                    print(f"    {violation}")
                print(f"    reproduce with: "
                      f"{repro_command(**record['config'])}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(db.to_json())
        print(f"merged coverage written to {args.json}")

    status = 0
    if failures:
        print(f"\nFAILED: {len(failures)} session(s) flagged violations; "
              f"failing seeds: {sorted(set(failures))}")
        status = 1
    if args.min_coverage is not None:
        low = [name for name in names
               if db.percent(name) < args.min_coverage]
        if low:
            print(f"\nFAILED: coverage below {args.min_coverage}% for: {low}")
            for missing in db.unhit():
                print(f"  unhit: {missing}")
            status = 1
    if status == 0:
        print(f"\nall sessions clean; merged coverage {db.percent():.1f}%")
    return status


if __name__ == "__main__":
    sys.exit(main())

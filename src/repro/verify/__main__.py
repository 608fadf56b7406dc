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

from ..obs import profile as _obs_profile
from ..rtl import EVENT, STRATEGIES
from .coverage import CoverageDB
from .rng import SEED_ENV, default_seed
from .session import TARGETS, verify_matrix


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
    # (VerifyResult.repro_command) replay the failing seed, not seed 0.
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[default_seed()],
                        help=f"root seeds to run (default: ${SEED_ENV} or 0)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycle budget override (default: per-target)")
    parser.add_argument("--strategy", default=EVENT, choices=STRATEGIES)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the merged coverage database here")
    parser.add_argument("--min-coverage", type=float, default=None, metavar="PCT",
                        help="fail if any target's merged coverage is below PCT")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result store; clean sessions are "
                             "replayed from it instead of re-simulating")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-strategy settle/compile wall-time "
                             "breakdown after the matrix "
                             "(docs/observability.md)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list:
        for name, spec in TARGETS.items():
            print(f"{name:<26} default_cycles={spec.default_cycles}")
        return 0

    if args.profile:
        profiler = _obs_profile.enable()
        try:
            return _run(args)
        finally:
            _obs_profile.disable()
            print(profiler.report())
    return _run(args)


def _run(args) -> int:
    names = args.targets or list(TARGETS)
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown target(s): {unknown}; see --list", file=sys.stderr)
        return 2

    store = None
    if args.store is not None:
        from ..serve.store import ResultStore

        store = ResultStore(args.store)

    db = CoverageDB()
    failures = []
    for name in names:
        # The store key needs the *resolved* cycle budget — "--cycles 1500"
        # and the bare default must land on one key.
        cycles = (args.cycles if args.cycles is not None
                  else TARGETS[name].default_cycles)
        cached = {}
        if store is not None:
            from ..serve.records import record_matches, verify_key

            for seed in args.seeds:
                record = store.get(
                    verify_key(name, seed, cycles, args.strategy))
                if record_matches(record, "verify"):
                    cached[seed] = record
        fresh_seeds = [seed for seed in args.seeds if seed not in cached]
        results = verify_matrix(name, fresh_seeds, cycles=args.cycles,
                                strategy=args.strategy)
        by_seed = {result.seed: result for result in results}
        for seed in args.seeds:
            if seed in cached:
                from ..serve.records import verify_summary_line

                record = cached[seed]
                db.add(record["result"]["coverage_group"])
                print(verify_summary_line(record))
                continue
            result = by_seed[seed]
            db.add(result.coverage)
            print(result.summary())
            if not result.ok:
                failures.append(result)
                for violation in result.violations[:5]:
                    print(f"    {violation}")
                print(f"    reproduce with: {result.repro_command()}")
            elif store is not None:
                # Only clean sessions are persisted: a failing session must
                # always re-run and reprint its reproduction command.
                from ..serve.records import verify_key, verify_record

                key = verify_key(name, seed, cycles, args.strategy)
                store.put(key, verify_record(result, key))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(db.to_json())
        print(f"merged coverage written to {args.json}")

    status = 0
    if failures:
        print(f"\nFAILED: {len(failures)} session(s) flagged violations; "
              f"failing seeds: {sorted({r.seed for r in failures})}")
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

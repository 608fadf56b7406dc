#!/usr/bin/env python
"""Enforce performance floors on a benchmark JSON artifact.

CI runs the benchmark suite with ``REPRO_BENCH_JSON=<path>`` (which makes
``benchmarks/conftest.py`` write the metric registry at session end), uploads
the file as a ``BENCH_*.json`` artifact, and then runs::

    python benchmarks/check_regression.py <path>

The floors here mirror the assertions inside ``test_throughput.py`` — the
point of duplicating them is that the artifact, not just the test run, is
the unit of record: a future change to how benchmarks execute cannot
silently drop a guard without also touching this file.

``--baseline PREV_BENCH.json`` additionally compares every shared
``cycles_per_second`` measurement against a previous artifact and prints
per-metric deltas — informational (the hard gate stays the floors; run-to-
run noise on shared CI hardware would make deltas an unreliable gate), but
it turns the BENCH_* artifact trail into a readable trajectory.
``--summary PATH`` appends the comparison as GitHub-flavoured markdown
(CI points it at ``$GITHUB_STEP_SUMMARY``).

Exit status: 0 when every guarded ratio holds, 1 otherwise (or when an
expected measurement is missing from the artifact).
"""

from __future__ import annotations

import argparse
import json
import sys

#: (design, fast strategy, slow strategy, floor).  Ratios are recomputed
#: from the raw cycles/sec numbers so a corrupted "speedup" section cannot
#: mask a regression.
FLOORS = [
    ("saa2vga_fifo", "compiled", "fixpoint", 2.0),
    # FSM- and SRAM-bound: the dissolved FSM.goto and SRAM handshakes
    # (mirrors test_compiled_backend_speedup_on_sram).
    ("saa2vga_sram", "compiled", "fixpoint", 7.0),
    ("blur_pattern", "compiled", "fixpoint", 1.5),
    # Telemetry (repro.obs): compiled throughput measured after a tracing
    # enable+disable cycle must stay within 3% of the plain compiled floor
    # (2.0 * 0.97) — the disabled tracing check is the entire cost
    # (mirrors test_disabled_telemetry_keeps_compiled_throughput).
    ("saa2vga_fifo", "compiled-obs-off", "fixpoint", 1.94),
    # Elaborated pipeline graph (repro.flow): the many small bridge
    # processes of the graph shell must keep dissolving into the compiled
    # settle function (mirrors test_pipeline_compiled_speedup_over_fixpoint).
    ("pipeline_dualpath", "compiled", "fixpoint", 1.5),
]


def check(payload: dict) -> list:
    """Return a list of human-readable failures (empty when all floors hold)."""
    failures = []
    cps = payload.get("cycles_per_second", {})
    for design, fast, slow, floor in FLOORS:
        measurements = cps.get(design, {})
        fast_cps = measurements.get(fast)
        slow_cps = measurements.get(slow)
        if not fast_cps or not slow_cps:
            failures.append(
                f"{design}: missing cycles_per_second for "
                f"{fast!r} and/or {slow!r}")
            continue
        ratio = fast_cps / slow_cps
        status = "ok" if ratio >= floor else "REGRESSION"
        print(f"{design}: {fast} {fast_cps:,.0f} c/s vs {slow} "
              f"{slow_cps:,.0f} c/s -> {ratio:.2f}x (floor {floor}x) {status}")
        if ratio < floor:
            failures.append(
                f"{design}: {fast} is only {ratio:.2f}x {slow}, "
                f"floor is {floor}x")
    return failures


def compare(payload: dict, baseline: dict) -> list:
    """Per-metric delta rows between two artifacts' ``cycles_per_second``.

    Returns ``(design, strategy, baseline_cps, current_cps, delta_pct)``
    tuples for every measurement present in both artifacts, sorted so the
    output (and the markdown summary built from it) is deterministic.
    """
    rows = []
    current = payload.get("cycles_per_second", {})
    previous = baseline.get("cycles_per_second", {})
    for design in sorted(set(current) & set(previous)):
        for strategy in sorted(set(current[design]) & set(previous[design])):
            now = current[design][strategy]
            then = previous[design][strategy]
            if not now or not then:
                continue
            rows.append((design, strategy, then, now,
                         (now - then) / then * 100.0))
    return rows


def comparison_lines(rows: list, markdown: bool = False) -> list:
    """Render :func:`compare` rows as plain text or a markdown table."""
    if not rows:
        return ["no overlapping cycles_per_second measurements to compare"]
    if markdown:
        lines = ["| design | strategy | baseline c/s | current c/s | delta |",
                 "|---|---|---:|---:|---:|"]
        for design, strategy, then, now, delta in rows:
            lines.append(f"| {design} | {strategy} | {then:,.0f} | "
                         f"{now:,.0f} | {delta:+.1f}% |")
        return lines
    return [f"{design}: {strategy} {then:,.0f} -> {now:,.0f} c/s "
            f"({delta:+.1f}%)"
            for design, strategy, then, now, delta in rows]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Enforce performance floors on a benchmark artifact; "
                    "optionally diff it against a previous one.")
    parser.add_argument("bench", help="benchmark JSON artifact to check")
    parser.add_argument("--baseline", default=None, metavar="PREV_BENCH.json",
                        help="previous artifact to report per-metric deltas "
                             "against (informational; floors still gate)")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="append the baseline comparison as a markdown "
                             "table to this file (CI: $GITHUB_STEP_SUMMARY)")
    return parser


def main(argv: list) -> int:
    args = build_parser().parse_args(argv[1:])
    with open(args.bench, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    print(f"benchmark profile: {payload.get('profile', 'unknown')}")
    failures = check(payload)
    if args.baseline is not None:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"\nbaseline {args.baseline} unreadable ({exc}) — "
                  "skipping comparison")
            baseline = None
        if baseline is not None:
            rows = compare(payload, baseline)
            print(f"\ndeltas vs baseline "
                  f"(profile {baseline.get('profile', 'unknown')}):")
            for line in comparison_lines(rows):
                print(f"  {line}")
            if args.summary:
                with open(args.summary, "a", encoding="utf-8") as handle:
                    handle.write("### Benchmark deltas vs previous run\n\n")
                    for line in comparison_lines(rows, markdown=True):
                        handle.write(line + "\n")
                    handle.write("\n")
    if failures:
        print("\nperformance floors violated:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all performance floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

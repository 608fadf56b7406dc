#!/usr/bin/env python3
"""Batched design-space sweep through the exploration runner.

Where ``design_space_explorer.py`` characterises one container in isolation,
this example sweeps *whole designs*: every (design, binding, pixel format,
frame size, capacity) combination is expanded into a grid, each point is
simulated end-to-end through the compiled simulator, verified against
its golden model, and characterised for area/clock/power — with memoization
so a repeated point costs nothing.

Run with:  python examples/batch_sweep.py
"""

from repro.explore import (
    ExplorationRunner,
    best_by,
    comparison_report,
    expand_grid,
)

GRID = dict(
    designs=("saa2vga", "blur"),
    pixel_formats=("gray8", "rgb24"),
    frame_sizes=((16, 10),),
    capacities=(16, 64),
)


def main() -> None:
    points = expand_grid(**GRID)
    print(f"expanded grid: {len(points)} valid design points\n")

    runner = ExplorationRunner()
    results = runner.run(points)
    print(comparison_report(results, title="Batched sweep (compiled simulation)."))

    assert all(res.verified for res in results), "every point must match its golden model"
    print(f"all {len(results)} points verified against their golden models")

    # A second pass over the same grid is served entirely from the memo.
    runner.run(points)
    print(f"re-run of the same grid: {runner.cache_hits} memo hits, "
          f"{runner.evaluations} total simulations\n")

    cheapest = best_by(results, lambda res: res.luts + res.ffs + 384 * res.brams)
    fastest = best_by(results, lambda res: res.throughput, lowest=False)
    print(f"cheapest point: {cheapest.point.label()} "
          f"({cheapest.luts} LUTs, {cheapest.ffs} FFs)")
    print(f"fastest point:  {fastest.point.label()} "
          f"({fastest.throughput:.2f} pixels/cycle)")

    # Sweeps can also run a constrained-random verification session per
    # point (repro.verify): the report then carries functional coverage
    # alongside the synth estimates.
    checked = ExplorationRunner(verify=True, verify_cycles=1200)
    verified = checked.run(points[:2])
    print()
    print(comparison_report(verified,
                            title="Same sweep with constrained-random "
                                  "verification (verify=True)."))
    assert all(res.coverage_violations == 0 for res in verified)

    print("\nThe sweep mechanises the paper's Section 3.4 exploration: "
          "one grid call replaces\nhand-building each configuration, and the "
          "FIFO-vs-SRAM trade-off emerges directly\nfrom the table above.")


if __name__ == "__main__":
    main()

"""Command-line entry: ``python -m repro.explore``.

Mirrors ``python -m repro.verify``: a sweep is runnable straight from the
shell, no script required.  The grid comes from CLI axis flags, from a
JSON spec file (``--grid``), or both (CLI flags override the file); the
report goes to stdout in the Table-3 style and, with ``--json``, to a
machine-readable artifact.  Exit status is non-zero when any evaluated
point fails functional verification (or a ``--verify`` session flags
protocol violations), so CI can gate on a sweep.

Two execution backends beyond plain in-process sweeps:

* ``--store DIR`` keeps results in a persistent on-disk store — a warm
  re-sweep of an unchanged grid performs zero simulations, across runs;
* ``--server URL`` submits the same sweep to a running ``python -m
  repro.serve`` service and renders its results, making this CLI just one
  client of the HTTP/JSON API.

Examples::

    python -m repro.explore --designs saa2vga --bindings fifo sram \
        --capacities 16 32
    python -m repro.explore --pipelines chain --stages 1 2 4 \
        --fifo-depths 2 8 --verify
    python -m repro.explore --grid sweep.json --json results.json
    python -m repro.explore --grid sweep.json --store /var/tmp/repro-store
    python -m repro.explore --grid sweep.json --server http://127.0.0.1:8377
"""

from __future__ import annotations

import argparse
import json
import sys

from ..obs import export as _obs_export
from ..obs import recording
from ..obs import tracing as _obs_tracing
from ..rtl import STRATEGIES
from .report import comparison_report, coverage_summary, results_table
from .runner import AUTO, ExplorationRunner
from .spec import expand_spec, normalize_pipeline_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Design-space exploration of the pattern library.",
        epilog="With --store DIR results persist between runs (an unchanged "
               "grid re-sweeps with zero simulations); with --server URL the "
               "sweep is submitted to a running 'python -m repro.serve' "
               "service instead of simulating locally.  Both share one "
               "content-addressed key scheme, so a store written locally "
               "serves a server's cache hits and vice versa.  Full operator "
               "guide: docs/exploration.md.")
    grid = parser.add_argument_group("design grid axes")
    grid.add_argument("--designs", nargs="+", default=None,
                      metavar="NAME", help="design families (saa2vga, blur)")
    grid.add_argument("--bindings", nargs="+", default=None, metavar="NAME",
                      help="container bindings (default: all supported)")
    grid.add_argument("--formats", nargs="+", default=None, metavar="FMT",
                      help="pixel formats (gray8, rgb24, rgb565)")
    grid.add_argument("--frames", nargs="+", default=None, metavar="WxH",
                      help="stimulus frame sizes, e.g. 16x12")
    grid.add_argument("--capacities", nargs="+", type=int, default=None,
                      metavar="N", help="container capacities")

    pipe = parser.add_argument_group(
        "pipeline-composition axes (repro.flow)")
    pipe.add_argument("--pipelines", nargs="+", default=None, metavar="TOPO",
                      help="pipeline topologies (chain, dualpath, rgbbus)")
    pipe.add_argument("--stages", nargs="+", type=int, default=None,
                      metavar="N", help="pipeline depths for the chain topology")
    pipe.add_argument("--fifo-depths", nargs="+", type=int, default=None,
                      metavar="N", help="elastic edge FIFO depths")
    pipe.add_argument("--bus-widths", nargs="+", type=int, default=None,
                      metavar="BITS", help="stage/shared-bus element widths")

    run = parser.add_argument_group("execution")
    run.add_argument("--grid", metavar="PATH", default=None,
                     help="JSON grid spec file (CLI axis flags override it)")
    run.add_argument("--strategy", default=AUTO, choices=(AUTO, *STRATEGIES))
    run.add_argument("--processes", type=int, default=None, metavar="N",
                     help="evaluate uncached points on a local JobManager "
                          "pool of N worker processes")
    run.add_argument("--max-cycles", type=int, default=2_000_000)
    run.add_argument("--verify", action="store_true",
                     help="also run a constrained-random verification "
                          "session per point (adds cov%% / cr_ok columns)")
    run.add_argument("--verify-seed", type=int, default=0)
    run.add_argument("--verify-cycles", type=int, default=1500)
    run.add_argument("--store", metavar="DIR", default=None,
                     help="persistent result store directory; cached points "
                          "are served without simulating")
    run.add_argument("--server", metavar="URL", default=None,
                     help="submit the sweep to a running sweep service "
                          "(python -m repro.serve) instead of simulating "
                          "locally")
    run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="give up waiting on a --server sweep after this "
                          "long (default: wait forever)")

    obs = parser.add_argument_group("telemetry (docs/observability.md)")
    obs.add_argument("--trace", metavar="PATH", default=None,
                     help="record spans for the whole sweep and write them "
                          "here; .ndjson/.jsonl gets the line format, any "
                          "other extension gets Chrome trace-event JSON "
                          "(inspect with python -m repro.obs)")
    obs.add_argument("--profile", action="store_true",
                     help="print a per-strategy settle/compile wall-time "
                          "breakdown after the sweep")

    out = parser.add_argument_group("output")
    out.add_argument("--title", default="Design-space exploration.")
    out.add_argument("--json", metavar="PATH", default=None,
                     help="write result rows (and the coverage summary) here")
    out.add_argument("--quiet", action="store_true",
                     help="suppress the stdout table (exit status still set)")
    return parser


def _load_spec(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise SystemExit(f"grid spec {path!r} must be a JSON object")
    return spec


def merged_spec(args, file_spec: dict) -> dict:
    """One sweep-spec dict from the spec file with CLI flags folded over it.

    Per-axis precedence is CLI flag > spec-file entry > default, exactly as
    the flag help has always promised; ``--frames`` overrides both grids'
    frame axes but on its own opts neither grid in.
    """
    merged = dict(file_spec)
    for value, key in ((args.designs, "designs"), (args.bindings, "bindings"),
                       (args.formats, "formats"), (args.frames, "frames"),
                       (args.capacities, "capacities")):
        if value is not None:
            merged[key] = value

    try:
        pipe = normalize_pipeline_spec(file_spec.get("pipelines"))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    wants_pipelines = any(value is not None for value in (
        args.pipelines, args.stages, args.fifo_depths,
        args.bus_widths)) or bool(pipe)
    if wants_pipelines:
        for value, key in ((args.pipelines, "topologies"),
                           (args.stages, "stages"),
                           (args.fifo_depths, "fifo_depths"),
                           (args.bus_widths, "bus_widths"),
                           (args.frames, "frames")):
            if value is not None:
                pipe[key] = value
        merged["pipelines"] = pipe
    else:
        merged.pop("pipelines", None)
    return merged


def _print_sections(sections, args, cache_note: str) -> list:
    """Render the report sections; returns the flat result list."""
    all_results = [res for _, results in sections for res in results]
    if not args.quiet:
        for title, results in sections:
            print(comparison_report(results, title=title))
            print()
        print(f"{len(all_results)} point(s) evaluated {cache_note}")

    if args.json:
        payload = {
            "strategy": args.strategy,
            "points": len(all_results),
            "rows": [row for _, results in sections
                     for row in results_table(results)],
        }
        if args.verify:
            payload["coverage_summary"] = coverage_summary(all_results)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"results written to {args.json}")
    return all_results


def _gate(all_results, extra_failures=()) -> int:
    """Exit status from verification verdicts (and server-side failures)."""
    failed = [res for res in all_results if not res.verified]
    flagged = [res for res in all_results if res.coverage_violations]
    if failed or flagged or extra_failures:
        print(f"\nFAILED: {len(failed)} point(s) functionally wrong, "
              f"{len(flagged)} with protocol violations", file=sys.stderr)
        for res in (failed + flagged)[:10]:
            print(f"  - {res.point.label()}", file=sys.stderr)
        for failure in list(extra_failures)[:10]:
            print(f"  - {failure['point'].get('family', '?')} point: "
                  f"{failure['error']}", file=sys.stderr)
        return 1
    return 0


def _split_sections(results, title: str):
    """Group results into (designs) / (pipelines) report sections."""
    from ..flow.sweep import PipelinePoint

    design_results = [res for res in results
                      if not isinstance(res.point, PipelinePoint)]
    pipeline_results = [res for res in results
                        if isinstance(res.point, PipelinePoint)]
    sections = []
    if design_results:
        sections.append((f"{title} (designs)", design_results))
    if pipeline_results:
        sections.append((f"{title} (pipelines)", pipeline_results))
    return sections


def _run_remote(args, spec: dict) -> int:
    """``--server``: the CLI as a client of the HTTP/JSON sweep service."""
    from ..serve.client import ServiceError, SweepClient
    from ..serve.records import result_from_record

    config = {
        "strategy": args.strategy,
        "max_cycles": args.max_cycles,
        "verify": args.verify,
        "verify_seed": args.verify_seed,
        "verify_cycles": args.verify_cycles,
    }
    if args.trace is not None:
        # Server mode: the merged distributed trace (manager + every
        # worker's spans) is captured pool-side and fetched afterwards —
        # much richer than anything this client process could record.
        config["trace"] = True
    client = SweepClient(args.server)
    try:
        submitted = client.submit({"spec": spec, "config": config})
        status = client.wait(submitted["id"], timeout=args.timeout)
        payload = client.results(submitted["id"])
        if args.trace is not None:
            trace_records = client.trace(submitted["id"])
            fmt = _obs_export.write_trace(trace_records, args.trace)
            if not args.quiet:
                print(f"trace: {len(trace_records)} merged record(s) from "
                      f"{args.server} written to {args.trace} ({fmt})")
    except ServiceError as exc:
        print(f"sweep service error: {exc}", file=sys.stderr)
        return 3
    results = [result_from_record(record) for record in payload["records"]]
    sections = _split_sections(results, args.title)
    cached = status.get("cached", 0)
    all_results = _print_sections(
        sections, args, f"({cached} from cache, via {args.server})")
    return _gate(all_results, extra_failures=payload.get("failures", ()))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # With --server the trace is recorded pool-side and fetched by
    # _run_remote; this process records none of its own.
    local_trace = args.trace if args.server is None else None
    with recording(local_trace, args.profile, quiet=args.quiet):
        return _run(args)


def _run(args) -> int:
    spec = merged_spec(args, _load_spec(args.grid))

    try:
        design_points, pipeline_points = expand_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if not design_points and not pipeline_points:
        print("grid expanded to zero valid points", file=sys.stderr)
        return 2

    if args.server is not None:
        return _run_remote(args, spec)

    runner = ExplorationRunner(
        strategy=args.strategy, processes=args.processes,
        max_cycles=args.max_cycles, verify=args.verify,
        verify_seed=args.verify_seed, verify_cycles=args.verify_cycles,
        store=args.store)

    sections = []
    with _obs_tracing.span("explore.sweep", strategy=args.strategy,
                           points=len(design_points) + len(pipeline_points)):
        if design_points:
            sections.append((f"{args.title} (designs)",
                             runner.run(design_points)))
        if pipeline_points:
            sections.append((f"{args.title} (pipelines)",
                             runner.run(pipeline_points)))

    cache_note = f"({runner.cache_hits} from cache)"
    if args.store is not None:
        cache_note = (f"({runner.cache_hits} from cache, "
                      f"{runner.store_hits} from store)")
    all_results = _print_sections(sections, args, cache_note)
    return _gate(all_results)


if __name__ == "__main__":
    sys.exit(main())

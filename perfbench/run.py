"""Repository benchmark: ``stream``, ``sweep`` and ``verify`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1

Every repetition runs in a child forked from this set-up process, so each
one starts from the same state: ``repro`` imported, nothing built or
compiled.  The run repeats until ``--seconds`` have passed, prints a
human-readable report, and ends with one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import OpClock
from spans import Tracer, by_name, durations, leaf_spans, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: No new repetition starts this long after launch; with
#: :data:`CHILD_TIMEOUT_S` the run ends within 180 s.
HARD_STOP_S = 120.0

#: A repetition taking longer than this is killed and the run aborted.
CHILD_TIMEOUT_S = 40.0

#: Fresh interpreters timed importing the workload's modules.
IMPORT_SAMPLES = 5

#: Leaf spans must cover at least this share of a traced repetition.
LEAF_COVER_MIN = 0.9

WORKLOADS = ("stream", "sweep", "verify")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


# ---------------------------------------------------------------------------
# Repetitions in forked children
# ---------------------------------------------------------------------------

def _repetition(workload, setup_kwargs: dict, traced: bool,
                correct: bool) -> dict:
    """One set-up plus one timed repetition (runs in the child)."""
    clock = OpClock(correct)
    with clock.op("setup"):
        state = workload.setup(**setup_kwargs)
    tracer = Tracer(traced)
    began = time.perf_counter()
    out = workload.run(state, tracer, clock)
    out["wall_s"] = time.perf_counter() - began
    out["ops"], out["raw_ops"] = clock.ops, clock.raw
    out["spans"] = tracer.spans
    out["digest"] = hashlib.sha256(json.dumps(
        out.pop("modelled"), sort_keys=True).encode()).hexdigest()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kb / 1024
    return out


def _child_main(conn, fn, args) -> None:
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child and return its result.

    Fork, not spawn: the child must inherit this process's set-up state
    (imports, and for ``sweep`` the fork point of the worker pool), which
    is identical for every repetition.  This process starts no threads.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    sys.stdout.flush()
    sys.stderr.flush()
    child = ctx.Process(target=_child_main, args=(sender, fn, args))
    child.start()
    sender.close()
    try:
        if not receiver.poll(CHILD_TIMEOUT_S):
            raise RuntimeError(f"repetition exceeded {CHILD_TIMEOUT_S} s")
        status, payload = receiver.recv()
    except EOFError:
        status, payload = "error", "repetition died without a result"
    finally:
        receiver.close()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    if status != "ok":
        raise RuntimeError(f"repetition failed:\n{payload}")
    return payload


def measure_import_s(modules) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``,
    corrected for host speed like every other timed operation."""
    code = ("import time; from hostspeed import OpClock; "
            "clock = OpClock(True)\n"
            "with clock.op('import'):\n    import " + ", ".join(modules)
            + "\nprint(clock.ops['import'])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def op_times(reps, key: str = "ops") -> dict:
    """Each operation's time over the repetitions.

    An operation keeps its fastest host-speed-corrected time.  Set-up,
    and pool operations, whose correction averages several CPUs and is
    coarser, keep their median.
    """
    samples = {}
    for rep in reps:
        for op, seconds in rep[key].items():
            samples.setdefault(op, []).append(seconds)
    medians = {"setup", *reps[0].get("pool_ops", ())}
    return {op: median(values) if op in medians else min(values)
            for op, values in samples.items()}


def end_to_end(reps, import_s: float, key: str = "ops") -> dict:
    """The end-to-end metrics of the untraced repetitions.

    Every operation (a frame, a sweep, a session, a re-submission) gets
    one time from :func:`op_times`.  Rates divide the work by the sum of
    these times; latency percentiles are taken over them.
    ``key="raw_ops"`` gives the same figures without host-speed correction.
    """
    ops = op_times(reps, key)
    first = reps[0]
    work_s = sum(ops[op] for op in first["work_ops"])
    requests = [ops[op] * 1e3 for op in first["request_ops"]]
    return {
        "setup_s": (import_s + ops["setup"], "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "sim_cycles": (first["cycles"], "cycles"),
        "sim_cycles_per_s": (first["cycles"] / work_s, "cycles/s"),
        "work_per_s": (first["work"] / work_s, "1/s"),
        "request_p50_ms": (percentile(requests, 50), "ms"),
        "request_p85_ms": (percentile(requests, 85), "ms"),
    }


def _span_ms_p50(reps, name) -> float:
    return percentile([d * 1e3 for rep in reps
                       for d in durations(by_name(rep["spans"], name))], 50)


def _span_s(reps, name, design=None) -> float:
    return median([sum(durations(by_name(rep["spans"], name, design)))
                   for rep in reps])


def _span_count(reps, name) -> int:
    return int(median([len(by_name(rep["spans"], name)) for rep in reps]))


def _layer(reps, *path, default=0):
    """Median over repetitions of a nested ``layer`` entry."""
    values = []
    for rep in reps:
        node = rep["layer"]
        for part in path:
            node = node.get(part, {}) if isinstance(node, dict) else {}
        values.append(node if isinstance(node, (int, float)) else default)
    return median(values) if values else default


def per_layer(traced, untraced, pool, stream_designs) -> dict:
    """The per-layer metrics of the traced repetitions.

    ``untraced`` holds the same body run with tracing off (for the
    overhead); ``pool`` the ``JobManager`` repetitions (``sweep`` only).
    """
    has_kernel = any(s["name"] == "rtl.kernel"
                     for rep in traced for s in rep["spans"])
    kernel_s = _span_s(traced, "rtl.kernel")
    proposals = _layer(traced, "search", "proposals")
    shard_s = _layer(pool, "jobs", "shard_s")
    elapsed = _layer(pool, "jobs", "elapsed_s")
    workers = _layer(pool, "jobs", "workers")
    metrics = {
        "designs.build_ms_p50": (_span_ms_p50(traced, "designs.build"), "ms"),
        "designs.build_s": (_span_s(traced, "designs.build"), "s"),
        "rtl.compile.ctor_ms_p50": (_span_ms_p50(traced, "rtl.compile.ctor"),
                                    "ms"),
        "rtl.compile.ctor_s": (_span_s(traced, "rtl.compile.ctor"), "s"),
        "rtl.compile.ctors": (_span_count(traced, "rtl.compile.ctor"),
                              "count"),
        "rtl.compile.opaque_procs": (_layer(traced, "opaque_procs"), "count"),
        "rtl.compile.guarded": (_layer(traced, "guarded"), "count"),
        "rtl.kernel_s": (kernel_s, "s"),
        "rtl.kernel_cycles": (int(median([r["cycles"] for r in traced]))
                              if has_kernel else 0, "cycles"),
        "rtl.analysis_misses": (_layer(traced, "analysis_misses"), "count"),
    }
    for design in stream_designs:
        seconds = _span_s(traced, "rtl.kernel", design)
        cycles = _layer(traced, "kernel_cycles", design)
        metrics[f"rtl.kernel_cps.{design}"] = (
            cycles / seconds if seconds else 0.0, "cycles/s")
    metrics.update({
        "synth.estimate_ms_p50": (_span_ms_p50(traced, "synth.estimate"),
                                  "ms"),
        "synth.estimate_s": (_span_s(traced, "synth.estimate"), "s"),
        "explore.point_ms_p50": (_span_ms_p50(traced, "explore.point"), "ms"),
        "explore.point_s": (_span_s(traced, "explore.point"), "s"),
        "verify.session_s": (_span_s(traced, "verify.session"), "s"),
        "verify.sessions": (_layer(traced, "verify", "sessions"), "count"),
        "verify.cycles": (_layer(traced, "verify", "cycles"), "cycles"),
        "verify.transactions": (_layer(traced, "verify", "transactions"),
                                "count"),
        "verify.violations": (_layer(traced, "verify", "violations"),
                              "count"),
        "verify.coverage_pct": (_layer(traced, "verify", "coverage_pct"),
                                "%"),
        "search.evaluate_s": (_span_s(traced, "search.evaluate"), "s"),
        "search.wall_s": (_layer(traced, "search", "wall_s"), "s"),
        "search.sessions": (_layer(traced, "search", "sessions"), "count"),
        "search.rounds": (_layer(traced, "search", "rounds"), "count"),
        "search.simulated": (_layer(traced, "search", "simulated"), "count"),
        "search.memo_hits": (_layer(traced, "search", "memo_hits"), "count"),
        "search.proposals": (proposals, "count"),
        "search.accept_ratio": (_layer(traced, "search", "accepted")
                                / proposals if proposals else 0.0, "ratio"),
        "serve.store.get_ms_p50": (_span_ms_p50(traced, "serve.store.get"),
                                   "ms"),
        "serve.store.put_ms_p50": (_span_ms_p50(traced, "serve.store.put"),
                                   "ms"),
        "serve.store.hits": (_layer(pool, "store", "hits"), "count"),
        "serve.store.misses": (_layer(pool, "store", "misses"), "count"),
        "serve.store.puts": (_layer(pool, "store", "puts"), "count"),
        "serve.store.quarantined": (_layer(pool, "store", "quarantined"),
                                    "count"),
        "serve.jobs.elapsed_s": (elapsed, "s"),
        "serve.jobs.shards": (_layer(pool, "jobs", "shards"), "count"),
        "serve.jobs.shard_s": (shard_s, "s"),
        "serve.jobs.shard_max_s": (_layer(pool, "jobs", "shard_max_s"), "s"),
        "serve.jobs.requeues": (_layer(pool, "jobs", "requeues"), "count"),
        "serve.jobs.failed": (_layer(pool, "jobs", "failed"), "count"),
        "serve.jobs.workers": (workers, "count"),
        "serve.jobs.pool_busy_frac": (shard_s / (workers * elapsed)
                                      if elapsed else 0.0, "ratio"),
        "obs.trace_overhead_frac": (
            median([r["wall_s"] for r in traced])
            / median([r["wall_s"] for r in untraced]) - 1.0, "ratio"),
        "obs.leaf_cover_frac": (median([leaf_cover(r) for r in traced]),
                                "ratio"),
    })
    return metrics


def leaf_cover(rep) -> float:
    """Share of a traced repetition's wall time its leaf spans cover."""
    return sum(durations(leaf_spans(rep["spans"]))) / rep["wall_s"]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def plan(workload_name: str, trace: bool):
    """One round: ``(role, setup kwargs, traced)`` per repetition.

    Roles: ``e2e`` gives the end-to-end metrics; ``untraced``/``traced``
    run the traced body with tracing off and on; ``pool`` is the sweep's
    ``JobManager`` repetition in a traced run.
    """
    if workload_name == "sweep":
        if not trace:
            return [("e2e", {"pool": True}, False)]
        return [("pool", {"pool": True}, False),
                ("untraced", {"pool": False}, False),
                ("traced", {"pool": False}, True)]
    if not trace:
        return [("e2e", {}, False)]
    return [("untraced", {}, False), ("traced", {}, True)]


def make_workload(workloads, name: str, seed: int, scratch: str):
    if name == "stream":
        return workloads.Stream(seed)
    if name == "sweep":
        return workloads.Sweep(seed, scratch)
    return workloads.Verify(seed)


def run(args) -> int:
    launched = time.perf_counter()
    import workloads

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        workload = make_workload(workloads, args.workload, args.seed,
                                 scratch)
        import_s = measure_import_s(workloads.IMPORTS)
        rounds = plan(args.workload, bool(args.trace))
        reps = {role: [] for role, _, _ in rounds}
        deadline = time.perf_counter() + args.seconds
        while True:
            began = time.perf_counter()
            for role, kwargs, traced in rounds:
                reps[role].append(in_child(_repetition, workload, kwargs,
                                           traced, role == "e2e"))
            if args.trace:
                # Alternate which of untraced/traced runs first.
                rounds[-2:] = rounds[-2:][::-1]
            now = time.perf_counter()
            # Stop at the round boundary nearest the deadline.
            if (now + (now - began) / 2 >= deadline
                    or now - launched >= HARD_STOP_S):
                break
        return report(args, workloads, reps, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


def report(args, workloads, reps, import_s: float) -> int:
    every = [rep for role_reps in reps.values() for rep in role_reps]
    checks = [check for rep in every for check in rep["checks"]]
    digests = sorted({rep["digest"] for rep in every})
    checks.append((f"modelled-statistics digest identical across "
                   f"{len(every)} repetitions", len(digests) == 1))
    if args.trace:
        for rep in reps["traced"]:
            covered = leaf_cover(rep)
            checks.append((f"leaf spans cover {covered:.3f} of traced wall "
                           f"(>= {LEAF_COVER_MIN})", covered >= LEAF_COVER_MIN))
        if args.workload == "sweep":
            expected = reps["pool"][0]["records"]
            for rep in reps["traced"]:
                for key, record in rep["records"].items():
                    diff = sorted(f for f in record["result"]
                                  if record["result"][f]
                                  != expected.get(key, {}).get(
                                      "result", {}).get(f))
                    checks.append((f"{record['point']} traced result equals "
                                   f"the JobManager record "
                                   f"(differs: {diff})", not diff))
    failed = [name for name, ok in checks if not ok]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    strategies = workloads.resolved_strategies()
    print("strategies: " + ", ".join(f"{k}={v}"
                                      for k, v in strategies.items()))
    print("repetitions: " + ", ".join(f"{role} {len(r)}"
                                      for role, r in reps.items()))
    print(f"digest: {' '.join(digests)}")
    print(f"checks: {len(checks)} attempted, {len(failed)} failed")
    for name in failed[:20]:
        print(f"  FAILED: {name}")

    primary = reps["e2e"] if "e2e" in reps else reps.get("pool") \
        or reps["untraced"]
    named = {}
    for key in primary[0]["named"]:
        named[key] = median([rep["named"][key] for rep in primary])
        print(f"  {key:<24} {named[key]:.6g}")
    if args.trace:
        metrics = per_layer(reps["traced"], reps["untraced"],
                            reps.get("pool", []),
                            [name for name, _, _ in workloads.STREAM_DESIGNS])
    else:
        metrics = end_to_end(reps["e2e"], import_s)
        raw = end_to_end(reps["e2e"], import_s, key="raw_ops")
        print("uncorrected: " + ", ".join(
            f"{key} {value:.6g}" for key, (value, _) in raw.items()
            if key != "setup_s"))
    for key, (value, unit) in metrics.items():
        print(f"{key:<32} {value:<14.6g} {unit}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "strategies": strategies, "digests": digests, "named": named,
        "failed_checks": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "spans": {f"{role}{i}": rep["spans"]
                  for role, role_reps in reps.items()
                  for i, rep in enumerate(role_reps) if rep["spans"]},
    }, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

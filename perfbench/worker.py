"""One workload in one single-threaded process.

Started by ``run.py``; prints one JSON object on its standard output.

Modes:
  setup     generate the inputs, report when the first item could start, exit
  run       closed loop with one client for --seconds: time each item, check it
  untraced  the first --items items, timed, without spans
  traced    the same items with the span recorder installed; writes the trace
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
from stats import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


#: Reference kernel runs right after set-up; their median scales set-up time.
READY_REFS = 9


def import_program():
    """Import bvdesk from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bvdesk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bvdesk sources under {src}")
    sys.path.insert(0, str(src))
    import bvdesk
    if Path(bvdesk.__file__).resolve().parent != (src / "bvdesk").resolve():
        raise SystemExit(f"perfbench: imported bvdesk from {bvdesk.__file__}, not {src}")


def attempt(workload, item) -> tuple[int, object, str | None]:
    """Run one item; return (ns, output, failure or None)."""
    start = time.perf_counter_ns()
    try:
        output = workload.execute(item)
    except Exception as exc:  # a raising item is a failed item, and the run goes on
        return time.perf_counter_ns() - start, None, f"raised {exc!r}"
    ns = time.perf_counter_ns() - start
    try:
        return ns, output, workload.check(item, output)
    except Exception as exc:  # a malformed output fails its oracle
        return ns, output, f"oracle rejected the output: {exc!r}"


def timed_loop(workload, seconds: int) -> dict:
    """Closed loop, one client: the next item starts when the last is checked.

    The loop runs whole blocks of the workload's item pattern, so every run
    has the same mix of item kinds; a block starts only if the mean block
    time so far still fits in the budget.  At least one block always runs.
    The reference kernel is timed right before each item.
    """
    budget = seconds * 1_000_000_000
    times: list[int] = []
    refs: list[int] = []
    failures: list[str] = []
    begin = time.perf_counter_ns()
    k = 0
    while True:
        for _ in range(workload.block):
            refs.append(calibrate.reference_ns())
            ns, _output, failure = attempt(workload, workload.item(k))
            times.append(ns)
            if failure:
                failures.append(f"item {k}: {failure}")
            k += 1
        elapsed = time.perf_counter_ns() - begin
        if elapsed + elapsed * workload.block // k > budget:
            break
    return {"times_ns": times, "reference_ns": refs,
            "kinds": [workload.kind(workload.item(i)) for i in range(k)],
            "failures": failures, "wall_ns": time.perf_counter_ns() - begin,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


#: Work counters of the traced pass and their units; None marks a counter
#: whose source is gone.  The nonzero block count only feeds block_fill.
COUNTERS = {"bvu.memo_entries": "count", "bvu.interned_sets": "count",
            "bvu.descent_classes": "count", "cli.output_bytes": "bytes",
            "contfrac.gauss_states": "count", "refinement.tower_blocks": "count",
            "refinement.nonzero_blocks": "count"}


def observe_tables(counters: dict) -> None:
    """Sizes of the bvu memo and intern tables, read after each item."""
    from bvdesk import bvu
    memo = [getattr(bvu, name, None) for name in ("_MEM_CACHE", "_EQ_CACHE")]
    if counters["bvu.memo_entries"] is not None and all(isinstance(t, dict) for t in memo):
        counters["bvu.memo_entries"] = max(counters["bvu.memo_entries"],
                                           sum(len(t) for t in memo))
    else:
        counters["bvu.memo_entries"] = None
    interned = getattr(bvu, "_INTERN", None)
    counters["bvu.interned_sets"] = len(interned) if isinstance(interned, dict) else None


def fixed_pass(workload, items: int, traced: bool, trace_path: Path) -> dict:
    """The first ``items`` items, with or without the span recorder."""
    counters: dict = dict.fromkeys(COUNTERS, 0)
    failures: list[str] = []
    times: list[int] = []
    if not traced:
        for k in range(items):
            ns, _output, failure = attempt(workload, workload.item(k))
            times.append(ns)
            if failure:
                failures.append(f"item {k}: {failure}")
        return {"times_ns": times, "failures": failures}

    import tracing
    import workloads
    modules = {layer: importlib.import_module(f"bvdesk.{layer}") for layer in tracing.LAYERS}
    rec = tracing.Recorder()
    uninstall = tracing.install(rec, modules, [workloads])
    try:
        with rec.span("bench.run"):
            for k in range(items):
                item = workload.item(k)
                rec.item = k
                with rec.span("bench.item"):
                    ns, output, failure = attempt(workload, item)
                rec.item = -1
                times.append(ns)
                if failure:
                    failures.append(f"item {k}: {failure}")
                else:
                    workload.observe(item, output, counters)
                observe_tables(counters)
    finally:
        uninstall()
    rec.write(str(trace_path))
    spans = tracing.load(str(trace_path))
    return {"times_ns": times, "failures": failures, "counters": counters,
            "report": tracing.layer_report(spans), "spans": len(spans),
            "trace": str(trace_path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "untraced", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--items", type=int, default=1)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        gc.collect()
        result = {"ready_ns": time.monotonic_ns()}
        if args.mode in ("setup", "run"):
            # machine speed at set-up, to scale this launch's set-up time
            result["ready_ref_ns"] = median([calibrate.reference_ns()
                                             for _ in range(READY_REFS)])
        if args.mode == "run":
            result.update(timed_loop(workload, args.seconds))
            result["sizes"] = workload.sizes()
        elif args.mode in ("untraced", "traced"):
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            result.update(fixed_pass(workload, args.items, args.mode == "traced", trace_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

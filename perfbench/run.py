"""bvdesk benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload {universe,requests,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``.
Each workload runs in its own single-threaded worker process as a closed
loop with one client, started one after another (no pools, no threads).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
items of the workload untraced and then traced, and prints the per-layer
metrics computed from the written span file.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A full record (raw item times, metadata) is written to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_NS, scale
from stats import median, tail
from tracing import LAYERS
from worker import COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("universe", "requests")

#: Set-up-only launches per run; with the measured run they give setup_s.
SETUP_PROBES = 4
#: Items in the untraced and the traced pass of ``--trace 1``.
TRACE_ITEMS = {"universe": 36, "requests": 23}
#: Every run ends within this many seconds, or is abandoned.
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def launch(args: list[str], deadline: float) -> tuple[int, dict]:
    """Start a worker, wait for it, return (launch time in ns, its result)."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    launched = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return launched, json.loads(lines[-1])


def metadata(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bvdesk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "commit": git_commit(), "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "why": why(workload)}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def why(workload: str) -> str | None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Set-up probes, then the measured run; the end-to-end figures.

    Every time is scaled to reference machine speed (``calibrate.py``):
    set-up by the kernel runs right after it in the same launch, each item
    by the kernel runs nearest to it.
    """
    common = ["--workload", workload, "--seed", str(seed)]
    raw_setups, setup_refs, setups = [], [], []
    for probe in range(SETUP_PROBES + 1):
        args = [*common, "--mode", "setup"] if probe < SETUP_PROBES else \
            [*common, "--mode", "run", "--seconds", str(seconds)]
        launched, res = launch(args, deadline)
        raw_setups.append(res["ready_ns"] - launched)
        setup_refs.append(res["ready_ref_ns"])
        setups.append(raw_setups[-1] * REFERENCE_NS / setup_refs[-1])
    raw_times = res["times_ns"]
    times = scale(raw_times, res["reference_ns"])
    attempted, failed = len(times), len(res["failures"])
    tail_ns, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": metric(median(setups) / 1e9, "s"),
        "ops_per_s": metric(attempted * 1e9 / sum(times), "1/s"),
        "latency_p50_ms": metric(median(times) / 1e6, "ms"),
        "latency_tail_ms": metric(tail_ns / 1e6, "ms"),
        "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MiB"),
    }
    raw = {"setup_s": median(raw_setups) / 1e9,
           "ops_per_s": attempted * 1e9 / sum(raw_times),
           "latency_p50_ms": median(raw_times) / 1e6,
           "latency_tail_ms": tail(raw_times)[0] / 1e6}
    record = {
        **metadata(workload, seed),
        "seconds": seconds, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": res["failures"][:20],
        "metrics": metrics,
        "samples": {"setup_s": len(setups), "ops_per_s": attempted,
                    "latency_p50_ms": attempted, "latency_tail_ms": attempted},
        "tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": attempted},
        "reference_ns": REFERENCE_NS, "unscaled_metrics": raw,
        "setup_ns": raw_setups, "setup_reference_ns": setup_refs,
        "item_times_ns": raw_times, "item_reference_ns": res["reference_ns"],
        "item_kinds": res["kinds"], "busy_ns": sum(raw_times), "wall_ns": res["wall_ns"],
        "input_sizes": res["sizes"],
    }
    lines = [
        f"{workload}: {attempted} items attempted, {failed} failed "
        f"(fail_ratio {failed / attempted:g} = {failed}/{attempted})",
        *(f"  {name:<16} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()),
        f"  tail at p{tail_pct:.1f}, {beyond} of {attempted} samples beyond it; "
        f"setup_s is the median of {len(setups)} launches",
        "  times at reference speed; unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        *(f"  FAILED {msg}" for msg in res["failures"][:5]),
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "record": record, "lines": lines}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    """Untraced pass, then traced pass, over the same first items."""
    common = ["--workload", workload, "--seed", str(seed),
              "--items", str(TRACE_ITEMS[workload])]
    _, plain = launch([*common, "--mode", "untraced"], deadline)
    _, traced = launch([*common, "--mode", "traced"], deadline)
    rep, counters = traced["report"], traced["counters"]
    metrics: dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(rep["self_ns"][layer] / 1e9, "s")
        metrics[f"{layer}.calls"] = metric(rep["calls"][layer], "count")
    for n in range(1, 14):
        name = f"acceptance.criterion_{n:02d}"
        metrics[f"{name}.busy_s"] = metric(rep["busy_ns"].get(name, 0) / 1e9, "s")
    for name, unit in COUNTERS.items():
        if name != "refinement.nonzero_blocks" and counters[name] is not None:
            metrics[name] = metric(counters[name], unit)
    blocks = counters.get("refinement.tower_blocks")
    if blocks is not None:
        fill = counters["refinement.nonzero_blocks"] / blocks if blocks else 0
        metrics["refinement.block_fill"] = metric(fill, "1")
    series = rep["tagged_ns"]
    for fn, label, sizes in (("bvu.descent", "bvu.descent_ms", (2, 3, 4)),
                             ("refinement.refine_report", "refinement.refine_ms",
                              (10, 13, 16))):
        for size in sizes:
            samples = series.get(fn, {}).get(str(size), [])
            metrics[f"{label}.atoms{size}"] = metric(
                sum(samples) / len(samples) / 1e6 if samples else 0, "ms")
    wall = rep["roots_ns"]
    plain_ns, traced_ns = sum(plain["times_ns"]), sum(traced["times_ns"])
    metrics["bench.residue_s"] = metric(rep["self_ns"]["bench"] / 1e9, "s")
    metrics["trace.wall_s"] = metric(wall / 1e9, "s")
    metrics["trace.overhead_ratio"] = metric(traced_ns / plain_ns, "1")
    items = TRACE_ITEMS[workload]
    failures = plain["failures"] + traced["failures"]
    accounted = sum(rep["self_ns"].values())
    record = {
        **metadata(workload, seed), "items": items, "failures": failures[:20],
        "metrics": metrics, "spans": traced["spans"], "trace": traced["trace"],
        "untraced_ops_per_s": items * 1e9 / plain_ns,
        "traced_ops_per_s": items * 1e9 / traced_ns,
        "accounted_ns": accounted, "wall_ns": wall,
        "series_samples": {fn: {k: len(v) for k, v in by.items()}
                           for fn, by in series.items()},
    }
    lines = [
        f"{workload} traced: {items} items, {traced['spans']} spans, "
        f"wall {wall / 1e9:.4f} s = layers {(accounted - rep['self_ns']['bench']) / 1e9:.4f} s"
        f" + benchmark residue {rep['self_ns']['bench'] / 1e9:.4f} s",
        f"  tracing overhead: traced {items * 1e9 / traced_ns:.4g} items/s against "
        f"untraced {items * 1e9 / plain_ns:.4g} items/s on the same seed "
        f"(x{traced_ns / plain_ns:.3f})",
        *(f"  {name:<36} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()),
        *(f"  FAILED {msg}" for msg in failures[:5]),
    ]
    return {"attempted": 2 * items, "failed": len(failures), "metrics": metrics,
            "record": record, "lines": lines}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        result = per_layer(workload, seed, deadline)
    else:
        result = end_to_end(workload, seed, seconds, deadline)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-{seed}-trace{trace}.json"
    path.write_text(json.dumps(result["record"], indent=1) + "\n")
    for line in result["lines"]:
        print(line)
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bvdesk benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bvdesk" / "__init__.py").is_file():
        print(f"perfbench: no bvdesk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

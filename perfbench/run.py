"""modunits benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload verify-levels --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload divpoly-tower --seed 1 --trace 1
  python3 perfbench/run.py --steady 10 --seed 100 [--workload NAME]

Every batch runs in its own fresh single-threaded interpreter (child.py),
one at a time, so at most two processes exist and one of them waits.  With
--trace 0 the batch count is fixed by --seconds and the workload's nominal
batch time, and the end-to-end metrics are medians over the batches (the
median op is taken over each op's mean across the batches).  With
--trace 1 one untraced and one traced batch run on the same inputs; the
per-layer figures come from the traced one and the difference in wall time
is the tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170  # all batches of one run; the whole run must end within 180 s
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# -- provenance ---------------------------------------------------------------------


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (%s)" % ref


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modunits").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def meta(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- running batches ----------------------------------------------------------------


def run_batch(workload, seed, batch, trace, deadline):
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--batch", str(batch), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("%s batch %d: the run exceeded %d s" % (workload, batch, RUN_BUDGET_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s batch %d exited %d:\n%s"
                         % (workload, batch, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def count_failures(results):
    attempted = failed = 0
    reasons = []
    for res in results:
        for op, latency, digest, reason in res["ops"]:
            attempted += 1
            if reason or latency is None:
                failed += 1
                reasons.append("op %s: %s" % (op, reason or "not timed"))
    return attempted, failed, reasons


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND ops beyond
    it, or None when that percentile would not be above the median."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload_name, seed, seconds):
    """Untraced run: end-to-end metrics as {name: (value, unit, note)}."""
    workload = WORKLOADS[workload_name]
    batches = max(2, int(seconds // workload.nominal_batch_s))
    deadline = time.monotonic() + RUN_BUDGET_S
    results = [run_batch(workload_name, seed, b, 0, deadline) for b in range(batches)]
    attempted, failed, reasons = count_failures(results)
    samples = {}
    for res in results:
        for op, latency, _, _ in res["ops"]:
            if latency is not None:
                samples.setdefault(op, []).append(latency)
    latencies = [lat for v in samples.values() for lat in v]
    n_ops = len(latencies)
    per_batch = len(results[0]["ops"])
    med = statistics.median
    m = {
        "setup_s": (med(r["setup_s"] for r in results), "median of %d set-ups" % batches),
        "wall_s": (med(r["wall_s"] for r in results),
                   "median of %d batches of %d ops" % (batches, per_batch)),
        "ops_per_s": (med(len(r["ops"]) / r["wall_s"] for r in results),
                      "median of %d batches" % batches),
        # each op at its mean over the batches first: the median op is one
        # short op, and a single sample of it swings with the machine's load
        "op_p50_s": (med(statistics.fmean(v) for v in samples.values()),
                     "median over ops of their mean over %d batches, n=%d ops" % (batches, n_ops)),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in results), "median of %d processes" % batches),
    }
    t = tail(latencies)
    if t is not None:
        m["op_tail_s"] = (t[0], "p%.1f, n=%d ops" % (t[1], n_ops))
    metrics = {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in m.items()}
    metrics["fail_ratio"] = (failed / attempted, "ratio", "%d/%d ops" % (failed, attempted))
    return metrics, attempted, failed, reasons


def measure_traced(workload_name, seed):
    """Traced run: per-layer metrics plus the tracing overhead."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_batch(workload_name, seed, 0, 0, deadline)
    traced = run_batch(workload_name, seed, 0, 1, deadline)
    attempted, failed, reasons = count_failures([plain, traced])
    plain_digest = {op: digest for op, _, digest, _ in plain["ops"]}
    for op, _, digest, _ in traced["ops"]:
        if digest != plain_digest.get(op):
            failed += 1
            reasons.append("op %s: traced output differs from untraced output" % op)
    if traced["unrestored"]:
        failed += len(traced["ops"])
        reasons.append("traced ops: patches not restored: %s" % traced["unrestored"])
    metrics = {k: (v, unit, "") for k, (v, unit) in traced["layers"].items()}
    overhead = traced["wall_s"] - plain["wall_s"]
    estimate = (metrics["trace.spans"][0] * traced["span_cost_s"]
                + metrics["trace.bookkeeping_s"][0])
    self_sum = metrics["trace.self_sum_s"][0]
    within = abs(traced["wall_s"] - self_sum) <= max(overhead, estimate)
    metrics["trace.wall_s"] = (traced["wall_s"], "s", "traced batch")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s", "same inputs, untraced")
    metrics["trace.overhead_s"] = (overhead, "s", "traced wall - untraced wall")
    metrics["trace.overhead_ratio"] = (overhead / plain["wall_s"], "ratio", "")
    metrics["trace.overhead_est_s"] = (estimate, "s", "spans x %.3g s calibrated wrapper cost "
                                       "+ bookkeeping" % traced["span_cost_s"])
    metrics["trace.self_sum_s"] = (self_sum, "s", "layer self times %s the overhead of the "
                                   "traced wall" % ("add up to within" if within else "miss"))
    return metrics, attempted, failed, reasons


# -- reporting ---------------------------------------------------------------------


def print_result(metrics, attempted, failed, reasons):
    for name, (value, unit, note) in metrics.items():
        print("%-40s %14.6g %-6s %s" % (name, value, unit, note))
    for reason in reasons:
        print("FAILED %s" % reason)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name != "fail_ratio"},
    }))


def steady(args):
    """Run each workload --steady times with seeds seed, seed+1, ... and report
    each end-to-end metric's median, quartiles and spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    summary = {}
    for name in names:
        values = {}
        for i in range(args.steady):
            metrics, _, failed, reasons = measure(name, args.seed + i, args.seconds)
            if failed:
                raise BenchError("%s seed %d: %s" % (name, args.seed + i, reasons[:3]))
            for metric, (value, _, _) in metrics.items():
                values.setdefault(metric, []).append(value)
            print("# %s seed %d: %s" % (name, args.seed + i, json.dumps(
                {k: round(v[-1], 6) for k, v in values.items()})), flush=True)
        summary[name] = {}
        for metric, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[metric], n=4)
            spread = (q3 - q1) / q2
            summary[name][metric] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": bound}
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound
                                                        else "TOO WIDE")
            print("%-20s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f  %s"
                  % (name, metric, q2, q1, q3, spread, bound, verdict), flush=True)
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="steadiness mode: RUNS seeds per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modunits" / "__init__.py").is_file():
        print("error: no modunits sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not args.steady and not args.workload:
        parser.error("--workload is required unless --steady is given")
    print("# meta: %s" % json.dumps(meta(args)), flush=True)
    try:
        if args.steady:
            steady(args)
            return 0
        if args.trace:
            metrics, attempted, failed, reasons = measure_traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, reasons = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print_result(metrics, attempted, failed, reasons)
    return 0


if __name__ == "__main__":
    sys.exit(main())

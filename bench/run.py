#!/usr/bin/env python3
"""weylbench benchmark: a single-process, single-thread, closed-loop harness.

    python3 bench/run.py --workload battery|enumerate|rings|all \
        [--seed N] [--seconds S] [--trace 0|1]

One client runs the workload's fixed op list pass after pass, each op
starting when the previous one returns, for about --seconds seconds (at least
one pass; a pass is not started if it would overrun).  Every pass rebuilds
its inputs.  Every op's output is checked against the goldens in
goldens.json.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when an op failed.

--trace 0 reports the end-to-end metrics: setup_s, the median of several
fresh interpreters that import weylbench and build the inputs; pass_s and
op_geomean_s, medians over the passes; peak_rss_mb.  --trace 1 runs the
untraced passes, then one traced pass, and reports the per-layer metrics of
tracing.py plus the tracing overhead.  Run records, with the trace, are written
to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "weylbench" / "__init__.py").is_file():
    sys.exit("bench: %s/weylbench not found; run from a weylbench checkout" % SRC)
sys.path.insert(0, str(SRC))

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_geomean_s": "s",
                    "peak_rss_mb": "MB"}


# Ops are probed every SAMPLE_S seconds (see clock.py).
SAMPLE_S = 0.1


@dataclass
class PassResult:
    pass_s: float      # reference-speed seconds: build plus every op
    wall_s: float      # the same segments in wall seconds
    op_s: list         # reference-speed seconds per op
    failures: list     # (op id, reason)


def _run_op(op):
    try:
        return op.run(), None
    except Exception as exc:  # an op that raises is a failed op
        return None, "raised %s: %s" % (type(exc).__name__, exc)


def run_pass(wl, seed, goldens, max_ops=None, tracer=None):
    """One pass: build the inputs, run every op, check every output.

    The harness's own checks fall between the timed segments, and the time
    spent probing is taken out of them."""
    gc.collect()
    timer = clock.Clock(None if tracer else SAMPLE_S)
    if tracer:
        tracer.op = "build"
    ops, wall_s, pass_s = timer.time(lambda: wl.build(seed)[:max_ops])
    op_s, failures = [], []
    for op in ops:
        if tracer:
            tracer.op = op.id
        (out, reason), wall, scaled = timer.time(lambda: _run_op(op))
        op_s.append(scaled)
        wall_s += wall
        pass_s += scaled
        if reason is None:
            golden = goldens.get(op.id)
            reason = ("no golden pinned" if golden is None else
                      workloads.check(wl.name, seed, op.id, op.summarize(out), golden))
        if reason:
            failures.append((op.id, reason))
    if tracer:
        tracer.op = None
    return PassResult(pass_s, wall_s, op_s, failures)


def measure(wl, seed, goldens, seconds, max_ops=None):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, seed, goldens, max_ops))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


SETUP_PROBES = 15


def setup_seconds(workload, seed):
    """Median over SETUP_PROBES fresh interpreters, started one at a time, of
    the time from launch until the interpreter reports its inputs built.

    Each interpreter probes its own speed (setup_child.py), and its time, less
    that probing, is rescaled by it.  A probe run in the parent does not
    track the child's speed: the child can run on the other CPU."""
    cmd = [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready_line = child.stdout.readline()
            ready = time.perf_counter() - t0
            report = child.stdout.read()
        if child.returncode or ready_line != "ready\n":
            raise subprocess.CalledProcessError(child.returncode, cmd)
        probing, speed = map(float, report.split())
        samples.append((ready - probing) * clock.PROBE_NOMINAL_S * speed)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# environment record


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg():
    return " ".join("%.2f" % x for x in os.getloadavg())


# ---------------------------------------------------------------------------


def run_workload(args):
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None or wl.ignores_seed else args.seed
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "cpu": cpu_model(), "commit": commit(), "loadavg_start": loadavg()}
    with open(BENCH / "goldens.json", encoding="utf-8") as fh:
        goldens = json.load(fh)[wl.name]

    metrics, units = {}, dict(END_TO_END_UNITS)
    if not args.trace:
        metrics["setup_s"] = setup_seconds(wl.name, seed)
    passes = measure(wl, seed, goldens, args.seconds, args.max_ops)
    untraced_pass_s = statistics.median(p.pass_s for p in passes)
    trace_data = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, seed, goldens, args.max_ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        units = tracing.metric_names()
        units["trace.overhead_s"] = "s"
        metrics.update(tracer.metrics())
        metrics.update(tracing.scalar_microbench())
        metrics["trace.overhead_s"] = traced.pass_s - untraced_pass_s
        trace_data = tracer.dump()
    else:
        metrics["pass_s"] = untraced_pass_s
        metrics["op_geomean_s"] = statistics.median(
            statistics.geometric_mean(p.op_s) for p in passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env["loadavg_end"] = loadavg()

    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for key, value in env.items():
        print("env.%s=%s" % (key, value))
    if args.seed not in (None, seed):
        print("seed ignored: %s; ran seed=%d" % (wl.ignores_seed, seed))
    print("workload=%s seed=%d untraced_passes=%d ops_per_pass=%d trace=%d"
          % (wl.name, seed, len(passes) - args.trace, len(passes[0].op_s), args.trace))
    print("wall.pass_s=%s s (unscaled, per pass)"
          % " ".join("%.4g" % p.wall_s for p in passes))
    if args.trace:
        for name, count in tracer.distinct_counts().items():
            print("distinct.%s=%d keys" % (name, count))
    for op_id, reason in failures:
        print("FAIL %s: %s" % (op_id, reason))
    for name, value in metrics.items():
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("%s=%s %s" % (name, shown, units[name]))
    print("failed_ratio=%.6g ratio (%d/%d)"
          % (len(failures) / attempted, len(failures), attempted))

    record = dict(env=env, workload=wl.name, seed=seed, trace=args.trace,
                  metrics=metrics, failures=failures, trace_data=trace_data,
                  passes=[{"pass_s": p.pass_s, "wall_s": p.wall_s, "op_s": p.op_s}
                          for p in passes])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / ("%s-seed%d-trace%d.json" % (wl.name, seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.max_ops is not None:
            cmd += ["--max-ops", str(args.max_ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(total))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the acceptance-suite seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="run only the first N ops of each pass")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

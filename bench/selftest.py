#!/usr/bin/env python3
"""Self-test of the benchmark harness; finishes in seconds.

    python3 bench/selftest.py

Runs the first op of each workload untraced and the first battery op traced
(twice), and asserts that every metric named in BENCHMARK.json is printed with
its unit, that the goldens hold, that per-layer counts repeat exactly between
the two traced runs, that rings reports a --seed it ignores, and that a wrong
output is reported as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0", "--max-ops", "1",
         *args],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, metrics, expected, prefix=""):
    for m in expected:
        name = m["name"]
        assert metrics[prefix + name]["unit"] == m["unit"], prefix + name
        assert any(line.startswith(name + "=") and line.endswith(" " + m["unit"])
                   for line in lines), "%s not printed with its unit" % name


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    lines, result = run("--workload", "all")
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] == len(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert_metrics(lines, result["metrics"], spec["end_to_end"], name + ".")
    assert sum(line.startswith("failed_ratio=0 ratio") for line in lines) == 3

    lines, result = run("--workload", "rings", "--seed", "1")
    assert result["correct"], result
    assert any(line.startswith("workload=rings seed=%d " % workloads.RINGS_SEED)
               for line in lines), lines
    assert any(line.startswith("seed ignored: ") for line in lines), lines

    traced = []
    for _ in range(2):
        lines, result = run("--workload", "battery", "--trace", "1")
        assert result["correct"], result
        assert_metrics(lines, result["metrics"], spec["per_layer"])
        traced.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items()
               if k.endswith((".calls", ".distinct_ratio"))} for m in traced]
    assert counts[0] == counts[1], "per-layer counts differ between runs"
    assert counts[0]["battery.theorem_battery.calls"] == 1

    golden = {"count": 2, "digest": "0" * 16}
    assert workloads.check("enumerate", 0, "x", {"count": 2, "digest": "1" * 16},
                           golden), "a wrong digest passed the check"
    print("selftest: ok")


if __name__ == "__main__":
    main()

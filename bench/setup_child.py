#!/usr/bin/env python3
"""One fresh interpreter of run.py's setup_s timing.

    python3 bench/setup_child.py WORKLOAD SEED

Imports weylbench and builds the workload's inputs while a clock probes the
machine speed every SAMPLE_S seconds.  Prints 'ready' once the inputs are
built, then the seconds spent probing and the mean probe speed, which the
parent uses to rescale the time it measured from launch to 'ready'.
"""

from __future__ import annotations

import sys
from pathlib import Path

import clock

# A set-up takes about 0.2 s, so it is probed more often than an op.
SAMPLE_S = 0.02


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    c = clock.Clock(SAMPLE_S)

    def build():
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        import workloads
        workloads.WORKLOADS[name].build(seed)

    c.time(build)
    print("ready", flush=True)
    print(c.probing, c.speed)


if __name__ == "__main__":
    main()

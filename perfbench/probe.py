"""Host speed probe: a fixed reference computation timed beside the workload.

The host lends its cores to other tenants, and a core's speed changes by up
to half within seconds while the work stays the same. A probe process pinned
to the same CPU as the work runs a short burst of fixed pure-Python and
small-array numpy work every ``INTERVAL_S`` seconds and records when each
burst started and ended. Because it shares the CPU, each burst runs at the
speed the work sees at that moment, so a unit's wall time scaled by the mean
of ``NOMINAL_S / burst`` over the unit's window is its time at a nominal host
speed. The probe takes a few percent of its CPU; that share is the same on
every commit.

    python3 perfbench/probe.py CPU OUT

runs until its standard input reaches end of file, then writes
``[[start, end], ...]`` in ``time.monotonic`` seconds to ``OUT``. It prints
``ready`` once warmed up.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

INTERVAL_S = 0.05
WARMUP_BURSTS = 10
# duration of one burst that defines the nominal host speed; on the 2-core
# host of the baseline in README.md the median burst took 2.5 ms beside one
# busy CPU and 3.3 ms with both busy
NOMINAL_S = 0.003


def reference(rounds=100):
    """Fixed work shaped like the simulation: scalar stock-and-flow updates
    in Python floats, plus one small numpy vector update per round."""
    rng = np.random.default_rng(12345)
    v = rng.random(200)
    w = rng.random((200, 8))
    ones = np.ones(8)
    stock = [1.0, 2.0, 3.0, 4.0]
    acc = 0.0
    for _ in range(rounds):
        for _ in range(8):
            inflow = stock[0] * 0.25 + math.exp(-stock[1] / 10.0)
            outflow = min(stock[2], inflow * 0.9)
            stock[0] += 0.25 * (inflow - outflow)
            stock[1] += (stock[3] - stock[1]) / 3.0
            stock[2] = max(0.0, stock[2] + inflow - outflow)
            stock[3] = stock[3] * 0.999 + 0.001 * acc
            acc += outflow
        v = np.clip(v + 0.01 * (w @ ones - v), 0.0, 1.0)
        acc += float(v.sum()) * 1e-6
    return acc


class HostProbe:
    """One probe process per CPU in ``cpus``, started at construction."""

    def __init__(self, cpus, work: Path):
        self.paths = [work / f"probe-{cpu}.json" for cpu in cpus]
        self.procs = [subprocess.Popen(
            [sys.executable, __file__, str(cpu), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu, path in zip(cpus, self.paths)]
        self.samples = []
        for proc in self.procs:
            if proc.stdout.readline().strip() != "ready":
                self.stop()
                raise RuntimeError("host probe did not start")

    def stop(self):
        """End every probe, wait for it, and collect its bursts."""
        for proc in self.procs:
            proc.stdin.close()
        for proc, path in zip(self.procs, self.paths):
            proc.wait()
            proc.stdout.close()
            if path.exists():
                self.samples += json.loads(path.read_text())
                path.unlink()
        self.procs = []

    def speed(self, start, end):
        """Mean host speed over ``[start, end]`` relative to nominal, and the
        number of bursts it rests on. Bursts up to one interval either side
        count, so that a window shorter than the interval still has one."""
        ratios = [NOMINAL_S / (e - s) for s, e in self.samples
                  if s >= start - INTERVAL_S and e <= end + INTERVAL_S]
        if not ratios:
            raise RuntimeError(f"no probe burst within [{start}, {end}]")
        return sum(ratios) / len(ratios), len(ratios)


def main(argv):
    cpu, out = int(argv[0]), Path(argv[1])
    os.sched_setaffinity(0, {cpu})
    for _ in range(WARMUP_BURSTS):
        reference()
    print("ready", flush=True)
    samples = []
    while True:
        start = time.monotonic()
        reference()
        samples.append([start, time.monotonic()])
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
    out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

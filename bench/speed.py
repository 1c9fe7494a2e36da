"""A fixed reference kernel that every timing of the benchmark is scaled by.

The small shared host the benchmark was written on (2 vCPUs) runs the same
Python code at speeds up to 2x apart, in phases lasting from about a second
to minutes; the process's CPU time follows its wall time, so it is the
machine, not the scheduler.  A median over one run follows whichever phase
held most of that run and jumps from run to run.  The phases slow the
package's code and this kernel alike, so the benchmark times the kernel
beside the work and reports

    scaled time = wall time * REF_S / (kernel time measured next to it)

that is, time in units of the kernel's time, written in seconds as if the
kernel took REF_S.  On that host the kernel takes 0.85 to 1.45 ms, so scaled
times read about 0.7 to 1.2 times the wall time.  The kernel is pure Python
of the package's own kind (dicts of tuples, small ints, sorting, frozensets)
and calls nothing from the package, so a change to the package moves scaled
times exactly as it moves wall times at a fixed machine speed.

Jobs that start a tuttepoly process spend most of their time in process
start and imports, which the phases slow otherwise than pure Python; they
are scaled by an empty interpreter start (``spawn``) instead, as if that
took SPAWN_REF_S.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

REF_S = 1e-3            # the kernel's time in the scaled unit
SPAWN_REF_S = 60e-3     # an empty interpreter start's time in the scaled unit
SAMPLE_EVERY_S = 0.05   # at most one kernel sample per this much work
NEAREST = 6             # kernel times a scale is the median of, on each side


def kernel():
    d = {}
    acc = 0
    for i in range(1500):
        k = (i * 7919) % 257
        t = (k, i & 15)
        d[t] = d.get(t, 0) + i
        acc += len(str(i))
    ranked = sorted(d.items(), key=lambda kv: kv[1])
    return acc + len(frozenset(x for x, _ in ranked[:64]))


def kernel_times(runs):
    """Wall times of ``runs`` kernel runs, after one untimed warm-up run."""
    clock = time.perf_counter
    kernel()
    out = []
    for _ in range(runs):
        t = clock()
        kernel()
        out.append(clock() - t)
    return out


def spawn():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Gauge:
    """Reference samples taken between jobs, and the scale for any interval.

    ``Gauge()`` times the kernel, two runs a sample and at most one sample
    per SAMPLE_EVERY_S of work, and scales by the median of the NEAREST
    runs on each side; ``Gauge.for_processes()`` times ``spawn`` once before
    every job and scales by the three nearest on each side.
    """

    def __init__(self, reference=kernel, unit_s=REF_S, runs=2,
                 every_s=SAMPLE_EVERY_S, nearest=NEAREST):
        self.reference, self.unit_s, self.runs = reference, unit_s, runs
        self.every_s, self.nearest = every_s, nearest
        self.at = []     # start of each reference run, perf_counter seconds
        self.took = []   # its wall time
        self.last = float("-inf")

    @classmethod
    def for_processes(cls):
        return cls(spawn, SPAWN_REF_S, runs=1, every_s=0.0, nearest=3)

    def sample(self, force=False):
        """Time the reference unless the last sample is recent (or ``force``)."""
        clock = time.perf_counter
        if not force and clock() - self.last < self.every_s:
            return
        for _ in range(self.runs):
            t = clock()
            self.reference()
            self.at.append(t)
            self.took.append(clock() - t)
        self.last = clock()

    def scale(self, start, end):
        """unit_s over the reference's median time among the runs nearest [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        near = self.took[max(0, lo - self.nearest):hi + self.nearest]
        return self.unit_s / statistics.median(near)

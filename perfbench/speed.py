"""The machine's speed, sampled beside the work, to put every time on one scale.

The shared host this benchmark was sized on switches between speed states
about 1.5x apart, each lasting from about a second to several minutes (see
README.md).  A time measured in a slow state reads up to 1.6x too long, so a
run of raw times measures the neighbours, not folclass.  The fix: time a fixed
probe beside the work, and scale each measured time by
REFERENCE_PROBE_S / (the probe's mean time while the work ran).  The probe is
the benchmark's own code, so no change to folclass can move it; a change that
makes folclass slower or faster moves the scaled time by the same share.

While the work runs, a SIGALRM handler times one probe every SAMPLE_PERIOD_S of
wall time (interval timers are not inherited by forked pool workers, so only
the repetition's own interpreter is interrupted).  Set-up, which takes a few
tens of milliseconds, is scaled by probes taken just before and just after it.
A probe is timed in CPU time of its thread, so that it reads the speed of the
processor and not the wait for one, which a parent whose pool workers keep
both vCPUs busy would add.  The probes' own time is taken out of the measured
times before they are scaled.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

SAMPLE_PERIOD_S = 0.1
# Mean probe CPU time beside cartier-trace on a 2-vCPU Intel Xeon virtual
# machine with Python 3.11.7 in its fast state.  It only sets the scale:
# scaled times read within ~20% of raw times in that state.
REFERENCE_PROBE_S = 0.0017
# Probes taken just before and just after a measured interval.
EDGE_PROBES = 3


def probe():
    """Fixed interpreter work of ~2 ms: integer arithmetic, then a small dict
    with tuple keys, the two kinds of work folclass's code is made of."""
    total = 0
    for i in range(15000):
        total += i * i
    table = {}
    for i in range(6000):
        key = (i & 15, i & 7)
        table[key] = table.get(key, 0) ^ i
    return total + len(table)


def time_probes(count=EDGE_PROBES):
    """CPU times of `count` probes in a row."""
    times = []
    for _ in range(count):
        started = time.thread_time()
        probe()
        times.append(time.thread_time() - started)
    return times


def scale(probe_times):
    """Factor that turns a time measured beside these probes into reference seconds."""
    return REFERENCE_PROBE_S / fmean(probe_times)


class Sampler:
    """Times a probe every SAMPLE_PERIOD_S while the `with` block runs.

    `samples` holds every probe's CPU time, the edge probes included;
    `spent_wall_s` and `spent_cpu_s` are the wall and CPU time the probes
    inside the block took, to be subtracted from the block's own measurements.
    """

    def __init__(self, period=SAMPLE_PERIOD_S):
        self.period = period
        self.samples = []
        self.spent_wall_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        started = time.perf_counter()
        cpu_started = time.thread_time()
        probe()
        cpu = time.thread_time() - cpu_started
        self.samples.append(cpu)
        self.spent_cpu_s += cpu
        self.spent_wall_s += time.perf_counter() - started

    def __enter__(self):
        self.samples.extend(time_probes())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(time_probes())
        return False

    def factor(self):
        return scale(self.samples)

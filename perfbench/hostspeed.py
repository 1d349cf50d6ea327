"""Host speed, measured next to every job, to express times in reference
seconds.

The cloud VMs this benchmark runs on change speed by up to 1.6x within
minutes, since other tenants share the host, and by 10-15% within seconds.
Raw times of runs made minutes apart are then not comparable.  So the
worker times a fixed piece of pure-Python work (exact fractions, big
integers, tuples and dicts, the operations freearr spends its time on)
before the first job and after every job.  A job's time in reference
seconds is its raw time multiplied by REF_SLICE_S over the slower of the
two reference timings around it.  On a host where the slice takes
REF_SLICE_S, reference seconds are seconds.

The slower neighbour, rather than the mean of both, was chosen on ten
seeds of each workload: it gave the smallest quartile spreads of wall
time, p50 and p90.  A burst of host contention that slows a job often
shows in only one of the two timings around it.

The slice runs with the garbage collector off, so the program's heap does
not change its timing.  Nothing the program does can make it faster.  It
is timed in process CPU time: a shared core that runs slower slows it as it
slows the jobs, but a moment in which the process is not scheduled at all
does not count.  Timed by the wall clock, one such pause in a slice scaled
a whole job down by up to 5x.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import process_time

REF_SLICE_S = 0.001             # one slice on the reference VM
_MODULUS = 2 ** 900 + 7


def reference_slice():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(2 * i - 1, 3)
    x = 3 ** 300
    for _ in range(200):
        x = (x * 7919 + 1) % _MODULUS
    table = {}
    for i in range(400):
        table[(i, i * i)] = (i,)
    return acc, x, len(table)


def measure() -> float:
    """Median CPU time of three reference slices, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = process_time()
            reference_slice()
            times.append(process_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def to_reference(raw_s: float, ref_before: float, ref_after: float) -> float:
    return raw_s * REF_SLICE_S / max(ref_before, ref_after)

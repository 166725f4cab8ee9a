"""Reference kernel that scales host times to a fixed machine speed.

On a shared host the speed of one core changes by up to 2x within
seconds as other tenants come and go, which swamps the differences the
benchmark exists to show. So while a part is timed, a SIGALRM timer
runs a fixed pure-Python kernel every PROBE_INTERVAL_S, and once before
and once after the part. The part's host time t (kernel runs taken out)
is reported also in reference seconds:

    t_ref = t * REFERENCE_S / mean(kernel times)

that is, the time the part would take on a host where the kernel takes
REFERENCE_S. The kernel is part of the benchmark, never of culsim, so a
change to culsim moves t_ref as it would move t on a steady host.
"""
from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

# The kernel's time on an idle 2-vCPU x86-64 host under CPython 3.11;
# only a scale, so that reference seconds read like host seconds.
REFERENCE_S = 0.0003
PROBE_INTERVAL_S = 0.025  # about 1% of a part's time goes to the kernel


def kernel() -> int:
    counts = {}
    acc = 0
    for i in range(1000):
        key = (i & 15, i & 3)
        counts[key] = counts.get(key, 0) + 1
        acc += key[1]
    return acc


def kernel_s() -> float:
    t0 = clock()
    kernel()
    return clock() - t0


def timed(fn, *args, **kwargs):
    """Call fn; return (result, host seconds, reference seconds)."""
    samples = [kernel_s()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(kernel_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = clock()
    try:
        result = fn(*args, **kwargs)
    finally:
        host = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    host -= sum(samples[1:])  # kernel runs inside the part
    samples.append(kernel_s())
    return result, host, host * REFERENCE_S / statistics.fmean(samples)

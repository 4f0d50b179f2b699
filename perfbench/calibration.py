"""A fixed piece of CPU work, timed next to every job, that corrects job times
for how fast the host is at that moment.

On a shared host the speed of a core moves by a third or more within seconds
as other tenants come and go.  The CPU time of a job moves with it (no time
is stolen; the core just runs slower), so neither wall nor CPU time of the
same job list repeats from run to run.  The same fixed work timed just
before and just after a job slows in step with it.  A job's time divided by
the mean of the two, times REFERENCE_S, is its time in reference seconds:
what the job would take on a host where `calibrate` takes REFERENCE_S.  The
calibration never calls the library, so a change to the library moves
reference seconds exactly as it moves real ones.

The work mixes the two things the workloads spend their time on: dict and
integer bytecode in a Python loop, and additions of integers of tens of
thousands of bits.  Over ten 60-s windows of one job list, the quartile
spread of the summed per-job medians was 0.23-0.27 of the median in seconds
and 0.01-0.05 in reference seconds (2-vCPU Xeon guest at 2.0 GHz).
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.02  # about the median of `calibrate` on that host


def calibrate() -> float:
    """Seconds taken by a fixed amount of work, about 0.01-0.04 s."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(60000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    x = 1 << 60000
    for _ in range(1500):
        x += x >> 3
    return perf_counter() - start


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between calibrations that took `before` and `after`."""
    return seconds * REFERENCE_S * 2 / (before + after)

"""Host-speed calibration.

On a shared host the CPU this benchmark gets alternates between full and
about half speed, in phases of seconds, with the neighbours' load: the same
run can take 1.5-2x longer a minute later. Every end-to-end timing is
therefore taken next to a fixed calibration on the same CPU and reported
scaled to the calibration's reference time:

    normalized = measured * REFERENCE / calibration

so a slow host phase slows the calibration and the workload alike and
cancels. Two calibrations are used, each the one that tracks its workload
best on this host:

- CLI invocations and set-up probes (process start, import, a little
  compute) are paired with spawning `python -c pass`, timed just before and
  just after each operation (run.py);
- the in-process rss_stream loop is paired with kernel(), a fixed
  pure-Python loop run between chunks of a few milliseconds (child.py).

Neither calibration runs vlcpos code, so a change to vlcpos moves the
normalized figure as much as the measured one.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

# The calibrations' times on the host the benchmark was defined on (2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11.7) in its fast phase. Only ratios
# matter: results are compared with results from the same host.
REFERENCE_KERNEL_NS = 1_800_000
REFERENCE_FLOOR_NS = 48_000_000


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel() -> float:
    """Fixed interpreter-bound work: frozen dataclasses, float math, dict stores."""
    acc = 0.0
    table = {}
    for i in range(1, 2001):
        p = _Point(i * 1e-3, math.sqrt(i))
        acc += math.atan2(p.y, p.x + 1.0) ** 1.5 / (1.0 + math.cos(p.x))
        table[i & 127] = p
    return acc


def kernel_ns(repeats: int) -> float:
    """Mean time of one kernel() over repeats runs, in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter_ns() - t0) / repeats


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one CPU, so the
    calibrations measure the CPU the workload runs on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu

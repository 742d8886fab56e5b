"""Host speed, measured by a fixed calibration kernel between operations.

Shared virtual machines change speed by a third or more in phases of
20-30 seconds, in CPU time as well as in wall time, and the change hits
most computations in the process alike.  Timing the kernel right before
and after an operation and scaling the operation's wall time by
REFERENCE_S / kernel time converts it to time at a fixed reference speed.
On a 2-vCPU Intel Xeon virtual machine in such phases, a fixed Hecke orbit
repeated for 90 s spread 25% between 10-operation blocks in wall time and
4% in scaled time.  Allocation-bound work (coset enumeration, the scan
cache) tracks the kernel less closely.

The kernel uses what the workloads use (mpmath complex arithmetic, Python
integers, small NumPy reductions) and no heckelab code, so a change to the
program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
from mpmath import mp, mpc, mpf

# Median kernel time on the host the benchmark was written on (Intel Xeon,
# 2 vCPUs, Python 3.11.7, mpmath 1.3.0 on its Python backend).  It only
# sets the scale: reported times read as seconds at that host's usual speed.
REFERENCE_S = 0.0008

_Q = mpc("0.001234", "0.003141")
_ARR = np.arange(4096, dtype=np.int64)


def _kernel() -> int:
    with mp.workprec(160):
        acc, prod, qn = mpc(0), mpf(1), mpc(1)
        for n in range(1, 30):
            qn *= _Q
            acc += n * qn
            prod *= 1 - qn
    s = 0
    for i in range(700):
        s += i * i % 7
    for _ in range(8):
        s += int((_ARR * _ARR % 97).sum())
    return s


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few kernel runs: the current cost of a fixed unit of work."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best

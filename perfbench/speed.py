"""Reference kernels that track the machine's speed during a run.

On a shared VM the same work can take 1.5 times longer from one minute to
the next. A workload may name a kernel whose cost moves with the machine the
way its own requests do; the worker times it before the first pass and after
every pass, and each pass's times are reported in seconds at the reference
speed: measured time × REFERENCE_S / mean kernel time around the pass. scan
names the scalar-Python kernel and fock the dense matrix-vector one; verify
names none (see workloads.py). The kernels use no spinlev code, so a change
to the program cannot move them.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_VECTOR = np.ones(200)


def python_kernel():
    """Scalar float math, float formatting and JSON: the closed forms and the CLI writer."""
    acc = 0.0
    for i in range(20000):
        x = i * 1e-3
        acc += math.exp(-x) * math.cos(x) + math.sqrt(x + 1.0)
    text = ",".join("%.16e" % (k * 0.1) for k in range(5000))
    rows = json.dumps([{"a": float(k), "b": k * 0.5} for k in range(3000)])
    return acc, len(text) + len(rows)


def blas_kernel():
    """Dense 200 x 200 matrix-vector products: the Fock propagator's work."""
    for _ in range(200):
        _MATRIX @ _VECTOR


# kernel -> its typical time in seconds on the tuning VM (2 vCPUs, Python 3.11)
REFERENCE_S = {python_kernel: 0.020, blas_kernel: 0.002}


def factor(kernel, reps: int = 3) -> float:
    """REFERENCE_S over the median of `reps` timings of the kernel; 1 without one."""
    if kernel is None:
        return 1.0
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return REFERENCE_S[kernel] / statistics.median(times)

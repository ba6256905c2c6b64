"""Host-speed calibration: a fixed reference kernel timed between operations.

The benchmark host is shared, and its speed drifts by up to 1.8x over
tens of seconds: identical work measured minutes apart differs far more
than any useful regression bound.  Every run therefore times this
kernel (pure-Python arithmetic plus small ``tensordot``/``moveaxis``
calls, the same mix of work as the package's gate kernel) right before
each operation (the median of three passes) and scales the
operation's wall time by ``NOMINAL_S / local kernel time``, the median
of the samples taken before the five operations nearest to it.  A
scaled time is the wall time the operation would take on the host at
the speed where the kernel takes ``NOMINAL_S``; the common factor of a
slow or fast phase cancels, the program's own cost does not.  Raw
wall-clock figures are printed alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's 10th-percentile time over 9,000 samples on a shared 2-core
# x86-64 host (Python 3.11.7, numpy 2.4.6): the host's fast phases.
NOMINAL_S = 1.6e-3
WINDOW = 5
PASSES = 3

_STATE = np.arange(128, dtype=np.complex128).reshape(2, 2, 2, 2, 8) / 128
_GATE = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=np.complex128)


def kernel_time() -> float:
    """Seconds one pass of the reference kernel takes now."""
    start = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i & 7
    t = _STATE
    for _ in range(60):
        t = np.moveaxis(np.tensordot(_GATE, t, axes=([1], [1])), 0, 1)
    return perf_counter() - start


def sample() -> float:
    """Median of a few passes of the kernel, taken back to back."""
    return statistics.median(kernel_time() for _ in range(PASSES))


def factor_now() -> float:
    """Scale factor for a figure measured just before this call."""
    return NOMINAL_S / statistics.median(sample() for _ in range(WINDOW))


def local_factors(kernel_s: list[float]) -> list[float]:
    """Per-operation scale factors from the kernel samples taken before each one."""
    half = WINDOW // 2
    n = len(kernel_s)
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        out.append(NOMINAL_S / statistics.median(kernel_s[lo:lo + WINDOW]))
    return out

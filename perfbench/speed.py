"""Host-speed reference for the benchmark's timings.

The host's speed is not steady: on shared cores the same code runs up to 2x
slower for seconds at a time.  A fixed pure-Python loop, close in kind to the
library's own arithmetic, is timed between operations, and every measured
time is scaled by REFERENCE_NOMINAL_S / (reference time around it).  The
benchmark so reports times at one nominal host speed, which makes runs at
different moments comparable.  REFERENCE_NOMINAL_S is about what the loop
takes on an uncontended 2-vCPU Xeon under KVM with CPython 3.11.

This module imports nothing from the library, so set-up probes can time the
reference before importing it.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_NOMINAL_S = 2.0e-4


def _reference_loop(n: int) -> float:
    z = 0.3 + 0.1j
    acc = 0.0
    for k in range(n):
        z = z * (0.999 - 0.001j) + 0.001
        acc += abs(z) ** 0.5 + 0.5 ** (k & 15)
    return acc


def reference_seconds() -> float:
    """Best of three timings of the reference loop (interrupts only add time)."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _reference_loop(1000)
        best = min(best, perf_counter() - start)
    return best


def scale(reference_before: float, reference_after: float) -> float:
    """Factor taking a time measured between two reference timings to nominal speed.

    Not smoothed over neighbouring timings: speed phases switch abruptly, and
    smoothing smears a switch over the operations next to it.
    """
    return 2.0 * REFERENCE_NOMINAL_S / (reference_before + reference_after)

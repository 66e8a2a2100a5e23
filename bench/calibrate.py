"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the CPU speed drifts: 30-second medians of one unchanged
run moved by ±20% on the 2-vCPU sandbox this benchmark was built on, and
the two vCPUs drift independently.  That drift swamps what a commit
changes.  So every driver run is bracketed, in its own process, by this
kernel, and the bounded time metrics divide wall time by the kernel's time.
The kernel lives here, not in mmdg, so no change to the program moves it.
It is an interpreter loop because interpreter and small-array overhead
bound three of the four workloads.
"""

import time

ITERATIONS = 2_500_000  # about 0.15 s


def calibrate():
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for j in range(ITERATIONS):
        total += j
    return time.perf_counter() - start

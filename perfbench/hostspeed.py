"""Host-speed probe: a fixed reference kernel timed between measured units.

The benchmark runs on shared virtual machines whose speed drifts: the
same decode loop was measured from 14 to 30 ms per iteration within
four minutes on one 2-vCPU host, with no other load in the guest. Wall
times taken minutes apart then differ by more than any useful
regression bound. So every timed unit is bracketed by probes of a
fixed kernel that does the same kind of work as the decoders (a binary
heap and small complex GEMVs under the interpreter) but shares no code
with the program, and a run's host times are scaled by how much slower
than :data:`NOMINAL_S` the median probe ran. A change to the program
moves the unit times but not the kernel, so the scaled times still show
it; a host slowdown moves both, and most of it cancels (over ten seeds
of ``serve-6x6`` the spread of frames/s fell from 12 % measured to 3 %
scaled).
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: Kernel seconds on the reference host (2-vCPU x86-64 container,
#: OpenBLAS) in a quiet period; scaled times are "seconds on that host".
NOMINAL_S = 0.005

_R = np.random.default_rng(0).standard_normal((10, 10)) + 0j
_V = np.random.default_rng(1).standard_normal((8, 10)) + 0j


def _kernel() -> float:
    heap: list[tuple[int, int]] = []
    acc = 0.0
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        if i % 10 == 0:
            acc += float(np.abs(_V @ _R[i % 10]).sum())
    return acc


def probe() -> float:
    """Median seconds of three kernel runs now (garbage collection off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - started)
        return statistics.median(runs)
    finally:
        if enabled:
            gc.enable()


def slowdown(probes: list[float]) -> float:
    """How much slower than nominal the host ran over a run's probes.

    The median, so a probe that lands in a burst of contention does not
    rescale the run on its own.
    """
    return statistics.median(probes) / NOMINAL_S


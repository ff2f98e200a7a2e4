"""Machine-speed reference for calibrating host-time measurements.

The simulator is interpreter-bound, and the speed a shared machine gives
one process drifts by tens of percent over seconds.  The benchmark runs
:func:`reference_loop` — a fixed miniature discrete-event simulation with
the simulator's instruction mix (heap pushes and pops, slotted objects,
small dicts, list rebuilds, tiny NumPy reductions) — between every pair
of measured calls, and scales each call's time by how much slower than
:data:`NOMINAL_S` the reference ran around it.  Times are then reported
in microseconds of a machine on which the reference loop takes
``NOMINAL_S`` seconds, and a code change moves them while a slow patch of
the machine mostly does not.

The loop never touches the program under test, so no change to the
program can move it.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

import numpy as np

#: Reference-loop seconds that calibrated times are expressed against.
NOMINAL_S = 0.02


class _Job:
    __slots__ = ("job_id", "size", "left", "start")

    def __init__(self, job_id: int, size: int) -> None:
        self.job_id = job_id
        self.size = size
        self.left = size
        self.start = 0.0


def reference_loop(num_jobs: int = 3000) -> int:
    """Batch-serve ``num_jobs`` Poisson arrivals; return jobs finished."""
    rng = random.Random(7)
    heap: list[tuple[float, int, _Job]] = []
    clock = 0.0
    for job_id in range(num_jobs):
        clock += rng.expovariate(16.0)
        heapq.heappush(heap, (clock, job_id, _Job(job_id, rng.randint(8, 64))))
    step_times = np.linspace(0.01, 0.02, 64)
    running: list[_Job] = []
    done: list[dict] = []
    totals: dict[int, float] = {}
    clock = 0.0
    while heap or running:
        while heap and (heap[0][0] <= clock or not running) \
                and len(running) < 16:
            arrival, _, job = heapq.heappop(heap)
            clock = max(clock, arrival)
            job.start = clock
            running.append(job)
        steps = min(job.left for job in running)
        clock += float(np.cumsum(step_times[:steps])[-1])
        for job in running:
            job.left -= steps
        for job in running:
            if job.left <= 0:
                record = {"id": job.job_id, "latency": clock - job.start}
                done.append(record)
                totals[job.size % 8] = (totals.get(job.size % 8, 0.0)
                                        + record["latency"])
        running = [job for job in running if job.left > 0]
    return len(done)


def reference_seconds() -> float:
    """Wall-clock seconds of one :func:`reference_loop`."""
    gc.collect()
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class CalibratedTimer:
    """Times calls, each scaled by the reference runs on either side."""

    def __init__(self) -> None:
        self._before = reference_seconds()
        #: The scale applied to each timed call, in call order.
        self.scales: list[float] = []

    def time(self, fn, *args):
        """``(fn(*args), calibrated seconds)``."""
        gc.collect()
        start = perf_counter()
        output = fn(*args)
        elapsed = perf_counter() - start
        after = reference_seconds()
        scale = NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        self.scales.append(scale)
        return output, elapsed * scale

"""Host-speed calibration: fixed loops, timed between the workload's passes.

The benchmark's host is a share of a machine whose speed moves by a third
and more, in phases from seconds to minutes, with no steal time reported
and user time moving with wall time.  A run's raw seconds therefore say
as much about the phase it fell in as about the program.  The loops below
use no repository code, so no program change can move them; the phase
does.  Timings are divided by the run's median slowdown against the
loops' reference times, which gives host seconds at the reference speed.

Three loops cover the kinds of work the workloads do: integer and list
work in the interpreter, a generator-driven event heap (the simulator's
shape) and NumPy sorts and scans over arrays larger than the L2 cache.
No single one of them tracked every workload; their mean did best.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

_now = time.perf_counter


def interpreter_loop() -> None:
    table = list(range(1024))
    acc = 0
    for i in range(150_000):
        j = i & 1023
        acc = (acc + table[j] * 7919) & 0xFFFFFF
        table[j] = acc


def event_loop() -> None:
    def process(rank: int):
        now = 0.0
        while True:
            now = yield now + 1.0 + (rank % 7) * 0.25

    procs = [process(rank) for rank in range(256)]
    heap = [(next(p), rank) for rank, p in enumerate(procs)]
    heapq.heapify(heap)
    state = {}
    for _ in range(20_000):
        t, rank = heapq.heappop(heap)
        state[(rank, int(t) & 63)] = {"t": t, "rank": rank}
        heapq.heappush(heap, (procs[rank].send(t), rank))


def array_loop() -> None:
    a = np.random.default_rng(0).random(1 << 17)
    for _ in range(2):
        order = np.argsort(a, kind="stable")
        a = np.maximum.accumulate(a[order])[::-1].copy() + a


#: (loop, host seconds of one call in a quiet phase of a 2-vCPU Intel
#: Xeon VM with Python 3.11).
LOOPS = ((interpreter_loop, 0.0180), (event_loop, 0.0220),
         (array_loop, 0.0300))
#: Calls of each loop per sample; a loop's time is their median.
REPEATS = 3
#: Minimum host seconds between samples taken with ``maybe_sample``.
EVERY_S = 2.0


class Calibrator:
    """Slowdown samples of one run: each sample is the mean, over the
    loops, of a loop's time over its reference time (1.0 at reference
    speed, 1.3 when the host runs 30% slower)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf
        # The first call of a loop in a process runs up to twice as long.
        for loop, _reference in LOOPS:
            loop()

    def sample(self) -> float:
        """Take one sample; returns the host seconds it took."""
        start = _now()
        ratios = []
        for loop, reference in LOOPS:
            times = []
            for _ in range(REPEATS):
                t0 = _now()
                loop()
                times.append(_now() - t0)
            ratios.append(statistics.median(times) / reference)
        self.samples.append(statistics.mean(ratios))
        self.last = _now()
        return self.last - start

    def maybe_sample(self) -> float:
        """Take a sample when ``EVERY_S`` have passed since the last one;
        returns the host seconds spent."""
        return self.sample() if _now() - self.last >= EVERY_S else 0.0

    def slowdown(self) -> float:
        """The median sample: a run takes a dozen or so, and one caught in
        a short spike must not swing the run's figures."""
        return statistics.median(self.samples)

"""Seconds at a fixed nominal speed, from a reference kernel run alongside.

On a shared virtual machine (2 vCPUs of an Intel Xeon host), the CPU runs
the same Python code up to 2x slower while neighbours load the host, in
phases that last from seconds to minutes, and no steal time is reported.  Elapsed or CPU
seconds then spread by about 20% between runs of identical code, and medians
within a run do not help when a whole run falls into a slow phase.

So a thread repeats a fixed pure-Python kernel in short bursts beside the
workload, with the process pinned to one CPU: the kernel shares the CPU and
the interpreter with the workload and slows down with it.  Over any window,
its rate (iterations per CPU second of its own) measures the speed the
workload saw, and

    nominal seconds = workload CPU seconds * rate / NOMINAL_RATE.

The kernel holds the interpreter about a tenth of the time, so a pass takes
about 10% longer in elapsed time than without it.
"""

from __future__ import annotations

import os
import threading
import time

# Kernel iterations per CPU second that define one nominal second: about the
# rate measured with the kernel running beside a workload on the reference
# machine (Intel Xeon, 2 vCPUs, CPython 3.11).  Only ratios between runs matter.
NOMINAL_RATE = 4000.0
BURST = 5  # kernel iterations per burst, about 1 ms
PAUSE_S = 0.004  # sleep between bursts, which leaves the interpreter to the workload
MIN_RATE_CPU_S = 0.02  # reference CPU time needed before a rate is trusted

_A = tuple(tuple((5 * i + 3 * j) % 7 - 3 for j in range(12)) for i in range(12))


def _kernel():
    """One dense 12x12 integer matrix product, written out like octoweyl's."""
    cols = tuple(zip(*_A))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in _A)


class Reference:
    """Runs the kernel in a background thread while the ``with`` block runs."""

    def __init__(self):
        self.iterations = 0
        self._stop = threading.Event()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="reference", daemon=True)
        self._affinity = None

    def __enter__(self) -> "Reference":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        self._started.wait()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _loop(self) -> None:
        while not self._stop.is_set():
            for _ in range(BURST):
                _kernel()
                self.iterations += 1
            self._started.set()
            time.sleep(PAUSE_S)

    def read(self) -> tuple[float, int, float]:
        """(CPU seconds of the process outside the kernel thread, kernel
        iterations, CPU seconds of the kernel thread)."""
        ref_cpu = time.clock_gettime(self._clock)
        return time.process_time() - ref_cpu, self.iterations, ref_cpu

    def rate(self, start: tuple, end: tuple) -> float:
        """Kernel iterations per kernel CPU second between two readings.

        A window in which the kernel barely ran takes the rate since the
        thread started, which includes at least one burst.
        """
        if end[2] - start[2] < MIN_RATE_CPU_S:
            start = (0.0, 0, 0.0)
        return (end[1] - start[1]) / (end[2] - start[2])

    def nominal(self, marks: list[tuple]) -> list[float]:
        """Nominal seconds of each (start, end) reading pair, in order.

        Each run is scaled by the rate over its own window, or, when that
        window is too short to sample, over the group of neighbouring runs it
        joins; a short tail joins the group before it.
        """
        groups: list[list[int]] = []
        current: list[int] = []
        for i, (_start, end) in enumerate(marks):
            current.append(i)
            if end[2] - marks[current[0]][0][2] >= MIN_RATE_CPU_S:
                groups.append(current)
                current = []
        if current:
            if groups:
                groups[-1] += current
            else:
                groups.append(current)
        out = [0.0] * len(marks)
        for group in groups:
            rate = self.rate(marks[group[0]][0], marks[group[-1]][1])
            for i in group:
                start, end = marks[i]
                out[i] = (end[0] - start[0]) * rate / NOMINAL_RATE
        return out

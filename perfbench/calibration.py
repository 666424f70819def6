"""Host-speed calibration for round times.

A shared host changes speed by tens of percent over seconds as other
tenants load it, and that swamps the differences the benchmark must
resolve. While a round runs, a SIGALRM timer interrupts it every
`INTERVAL` seconds and times a fixed pure-Python kernel (dict updates and
integer arithmetic, like rlnoc's own inner loops). The round's cost in
kernel runs, its wall time times the mean kernel rate over the round,
stays put when the host slows down or speeds up. Handler time is taken out
of the round's wall time. The handler runs in the main thread between
bytecodes, so it starts no thread and does not touch rlnoc's state.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.2
# Kernel time of the reference host; set-up samples are scaled to it.
NOMINAL_KERNEL_S = 0.005


def kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    return acc


def kernel_seconds(runs: int) -> list[float]:
    """Wall times of `runs` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class Calibrator:
    """Kernel timings taken while `measure` runs a round."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def measure(self, fn) -> tuple[float, float]:
        """Run fn() under the timer; return its wall time without the
        handler's time, and that time in kernel runs."""
        first, spent = len(self.samples), self.spent
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = end - start - (self.spent - spent - self.samples[first])
        rate = statistics.fmean(1.0 / c for c in self.samples[first:])
        return wall, wall * rate

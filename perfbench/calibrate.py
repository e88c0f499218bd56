"""Machine-speed calibration: a fixed probe kernel timed while the workload runs.

The box the benchmark runs on is a share of a busy host, and its speed moves
by half or more over seconds and minutes.  To take that out of the timings,
a fixed kernel that does the same kind of work as the program (interpreted
Python, many small ``einsum`` calls on block arrays, a few larger ones) is
timed in ticks while a pass runs: a wall-clock timer interrupts the pass
every ``INTERVAL_S`` and runs one tick in the signal handler, between two
bytecodes of the program.  The tick time is taken out of the pass's wall
time, and what is left is scaled to the reference speed:

    normalised = (wall - ticks) * mean(REFERENCE_TICK_S / tick)

``REFERENCE_TICK_S / tick`` is the box's speed relative to the reference at
that moment, so the mean is the average speed over the pass, and the
product is the time the pass would take at the reference speed.  The kernel
is part of the benchmark, not of the program, so a change to the program
moves the normalised time exactly as it moves the wall time at a fixed box
speed.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# a tick takes 6-11 ms, so ticks cost about 3 % of a pass's wall time
INTERVAL_S = 0.25
# the tick in the fast phases of the box the benchmark was defined on (2
# vCPUs of an "Intel(R) Xeon(R) Processor", Python 3.11, numpy 2.4), so that
# normalised times read about as wall seconds there
REFERENCE_TICK_S = 0.0065

_rng = np.random.default_rng(20030802)
_SMALL = _rng.standard_normal((2, 3, 3, 2, 2)) + 1j * _rng.standard_normal((2, 3, 3, 2, 2))
_LARGE = _rng.standard_normal((2, 27, 27, 2, 2)) + 1j * _rng.standard_normal((2, 27, 27, 2, 2))
_KEYS = [f"k{i}" for i in range(64)]


def kernel() -> None:
    """One tick of fixed work: interpreter, small einsums and one larger one."""
    a, b = _SMALL
    for _ in range(150):
        a = np.einsum("ikab,kjbc->ijac", a, b) * 0.25
    np.einsum("ikab,kjbc->ijac", _LARGE[0], _LARGE[1])
    table: dict[str, int] = {}
    total = 0
    for i in range(1500):
        key = _KEYS[i & 63]
        total += table.get(key, i) & 1023
        table[key] = total


def tick() -> float:
    """Run the kernel once with the collector off and return its wall time."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


def speed(ticks: list[float]) -> float:
    """Mean speed over ``ticks`` relative to the reference (1.0 = reference)."""
    return sum(REFERENCE_TICK_S / t for t in ticks) / len(ticks)


class Sampler:
    """Ticks of the kernel, every ``INTERVAL_S`` of wall time while active.

    ``start`` and ``stop`` each run ``EDGE`` ticks directly, so that every
    span measured between them has samples on both sides.  ``clock`` is
    ``time.perf_counter`` less the time spent in ticks so far: the
    difference of two readings is wall time with the ticks taken out.
    """

    EDGE = 3

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        # a tick may land between the two reads; read again until none did
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def _run_tick(self) -> None:
        t0 = time.perf_counter()
        self.ticks.append(tick())
        self.spent += time.perf_counter() - t0

    def _handler(self, signum, frame) -> None:
        self._run_tick()

    def start(self) -> None:
        self.ticks = []
        for _ in range(self.EDGE):
            self._run_tick()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """End sampling and return the mean speed over every tick since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(self.EDGE):
            self._run_tick()
        return speed(self.ticks)

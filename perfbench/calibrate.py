"""Host time rescaled by a reference kernel that runs alongside the measurements.

On a shared host the speed of a core swings by up to 1.8x for seconds to
minutes at a time, and the swing shows in CPU time as much as in wall time:
the core is slower, the process does not wait more. So while a run measures,
an interval timer interrupts it every PERIOD_S of host time to run one short,
fixed reference quantum: dense-layer numpy work of the size fedsim evaluates,
in code of the benchmark's own, so that no change to fedsim moves it. Of the
candidate kernels tried, this one tracked fedsim's round time best; kernels of
pure interpreter work tracked it worst.

A span's calibrated time is its time less the quanta inside it, times
NOMINAL_QUANTUM_S / the median CPU time of the quanta around it: the time the
span would take on a host where one quantum takes NOMINAL_QUANTUM_S. The
quanta are timed in CPU time, and so are the spans of the single-threaded
library loop: the host also takes the virtual CPU away now and then (steal
time), for up to tens of milliseconds, which inflates host time but not CPU
time, and which quanta this short would sample too rarely to correct for. A
`fedsim run` command is timed in host time, as a user sees it.
`fedsim run` children are timed the same way (cli_child.py).
"""

from __future__ import annotations

import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

# About the host time of one quantum on a 2-CPU x86-64 cloud host with
# Python 3.11 and numpy 2.4; calibrated times are stated for a host of that
# speed.
NOMINAL_QUANTUM_S = 1.0e-3
QUANTUM_STEPS = 12
# One quantum per PERIOD_S keeps the quanta to about 2.5% of a run.
PERIOD_S = 0.04
# The quanta that calibrate a span: those that start within WINDOW_S of it,
# and at least the NEAREST closest ones.
WINDOW_S = 0.5
NEAREST = 5


class Kernel:
    """A fixed amount of dense-layer numpy work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(512, 8))
        self.w1 = rng.normal(size=(8, 32))
        self.w2 = rng.normal(size=(32, 10))

    def run(self, steps: int = QUANTUM_STEPS) -> int:
        """Run `steps` forward passes; returns a checksum."""
        total = 0
        for _ in range(steps):
            logits = np.tanh(self.x @ self.w1) @ self.w2
            total += int(logits.argmax(axis=1).sum())
        return total


class QuantumTimer:
    """Runs one quantum every PERIOD_S of host time from a SIGALRM handler and
    passes (start, host seconds, CPU seconds) to `on_quantum`. Python runs the
    handler between bytecodes of the main thread, never inside a numpy call.
    The timer does not survive fork; `start` it again in the child."""

    def __init__(self, on_quantum) -> None:
        self.kernel = Kernel()
        self.kernel.run()  # warm-up, not recorded
        self.on_quantum = on_quantum

    def _quantum(self, signum, frame) -> None:
        start, cpu = perf_counter(), thread_time()
        self.kernel.run()
        self.on_quantum(start, perf_counter() - start, thread_time() - cpu)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._quantum)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer; callable from any thread."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)


class RefClock:
    """Timed spans and the reference quanta run among them.

    A quantum is (start, host seconds, CPU seconds, pid). Quanta run while
    `running()` is active; `add_quanta` merges quanta run in child processes
    (perf_counter is system-wide, so the times line up).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[float, float, float | None]] = []
        self.quanta: list[tuple[float, float, float, int]] = []
        self._starts: list[float] = []

    @contextmanager
    def running(self):
        """Run quanta in this process while the context is active."""
        pid = os.getpid()
        timer = QuantumTimer(lambda *q: self.quanta.append((*q, pid)))
        previous = signal.getsignal(signal.SIGALRM)
        timer.start()
        try:
            yield
        finally:
            timer.stop()
            signal.signal(signal.SIGALRM, previous)

    def add(self, start: float, end: float, cpu: float | None = None) -> int:
        """Record the span [start, end] of host time, with the CPU seconds this
        thread spent in it if the span is timed in CPU time; returns its id."""
        self.spans.append((start, end, cpu))
        return len(self.spans) - 1

    def add_quanta(self, quanta: list[tuple[float, float, float, int]]) -> None:
        self.quanta.extend(map(tuple, quanta))
        self.quanta.sort()
        self._starts = []

    def raw(self, span: int) -> float:
        """Host seconds of a span."""
        start, end, _ = self.spans[span]
        return end - start

    def _index(self) -> list[float]:
        if len(self._starts) != len(self.quanta):
            self._starts = [q[0] for q in self.quanta]
        return self._starts

    def net(self, span: int) -> float:
        """Seconds of a span less the quanta run inside it: CPU seconds for a
        span timed in CPU time, else host seconds. Quanta of several processes
        (the workers of a pooled run) ran side by side, so their host time is
        divided by the number of processes."""
        start, end, cpu = self.spans[span]
        starts = self._index()
        inside = self.quanta[bisect_left(starts, start):bisect_left(starts, end)]
        if cpu is not None:
            return cpu - sum(q[2] for q in inside)
        processes = len({q[3] for q in inside}) or 1
        return end - start - sum(q[1] for q in inside) / processes

    def seconds(self, span: int) -> float:
        """Calibrated seconds of a span."""
        start, end, _ = self.spans[span]
        starts = self._index()
        lo, hi = bisect_left(starts, start - WINDOW_S), bisect_right(starts, end + WINDOW_S)
        if hi - lo >= NEAREST:
            around = [q[2] for q in self.quanta[lo:hi]]
        else:
            centre = 0.5 * (start + end)
            nearest = sorted(self.quanta, key=lambda q: abs(q[0] - centre))[:NEAREST]
            around = [q[2] for q in nearest]
        return self.net(span) * NOMINAL_QUANTUM_S / statistics.median(around)

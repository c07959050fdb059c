"""Scaling wall times to a reference machine speed.

On a shared machine the same pass can run 25% slower from one minute to
the next while another tenant is busy, and process CPU time slows just
as much.  A timer signal therefore runs a fixed reference kernel every
PROBE_EVERY_S during timed work.  An operation's time is its wall time
minus the kernel runs inside it, times REF_S over the kernel's mean time
during it: the wall time it would take at the speed where the kernel
takes REF_S.  The kernel is pure Python, like singinv, and runs with the
collector off, so a larger heap in the program cannot slow it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# About the median time of reference_kernel() on the machine the baseline
# was measured on (2-vCPU Xeon at 2.1 GHz, Python 3.11.7).
REF_S = 0.0004
PROBE_EVERY_S = 0.02

clock = time.perf_counter


def reference_kernel() -> Fraction:
    """Fraction sums and a fraction-free 6x6 integer elimination."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i % 13 + 1)
    a = [[(i * 7 + j * 3) % 11 + (9 if i == j else 0) for j in range(6)] for i in range(6)]
    for k in range(5):
        for i in range(k + 1, 6):
            for j in range(k + 1, 6):
                a[i][j] = a[i][j] * a[k][k] - a[i][k] * a[k][j]
    return total + a[5][5]


class Pacer:
    """Times reference_kernel() from SIGALRM while active (a context manager)."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        reference_kernel()
        d = clock() - t0
        if collecting:
            gc.enable()
        self.durations.append(d)
        self.spent += d
        self._busy = False

    def __enter__(self) -> "Pacer":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """Three kernel runs now, and none while a child process does the
        work: a run in this process would overlap the child's, not delay it."""
        for _ in range(3):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def timed(self, fn, *args):
        """(result or raised Exception, wall seconds, seconds at reference speed).

        The speed is the mean kernel time during the call when it holds at
        least five runs, else the median of the last fifteen runs.
        """
        n0, spent0 = len(self.durations), self.spent
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # the caller counts it as a failed operation
            out = exc
        wall = clock() - t0 - (self.spent - spent0)
        inside = self.durations[n0:]
        speed = sum(inside) / len(inside) if len(inside) >= 5 else statistics.median(self.durations[-15:])
        return out, wall, wall * REF_S / speed

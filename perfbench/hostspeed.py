"""The host's current speed, read from a fixed pure-Python kernel.

The 2-vCPU machine this benchmark was built on changes speed by up to a
half over seconds, as other tenants load the host: the kernel below took
3.5 ms in one stretch and 6.2 ms a few seconds later, in process CPU time
as much as in wall time, and the library slows with it.  The ratio of a
library call to this kernel, timed right beside it, stays within a few
percent.  So every measured time is scaled by REFERENCE_S / (kernel time
around it), which gives the time the same work takes at the reference
machine's usual speed: a figure two commits measured minutes apart can be
compared on.  The kernel uses only the standard library, so no change to
dimalg can move it.

During in-process work a timer signal reads the speed every EVERY_S,
also in the middle of a long operation, and the time a reading takes is
taken out of the operation's time.  While a child process does the work,
the parent reads only between operations (a reading taken while the
child runs competes with it for the host and does not pause it), and
from a child kernel, a fresh interpreter: scaled by the in-process
kernel, a command read a tenth slower on a fast stretch of the host than
on a slow one, because start-up slows less than arithmetic does.
"""

import bisect
import signal
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0045   # kernel time at the reference machine's usual speed
EVERY_S = 0.1          # how often the timer reads the kernel
SMOOTH_S = 0.5         # readings this close to an interval also count for it
EDGE_READS = 5         # kernel readings when a stretch of work starts and ends

CHILD_KERNEL = [sys.executable, "-c", "import fractions"]
CHILD_REFERENCE_S = 0.060  # its time at the reference machine's usual speed
CHILD_EVERY_S = 0.4        # how often it is read between operations; one
                           # reading differs from the next by a few percent,
                           # so one reading opens and closes a stretch


def kernel() -> int:
    """Exact rational arithmetic and small dict traffic, like the library's."""
    acc = Fraction(0)
    seen = {}
    for i in range(800):
        f = Fraction(i % 97 + 1, i % 13 + 1)
        acc += f * f
        seen[(i % 50, i % 7)] = acc.numerator % 1000
    return len(seen)


class SpeedClock:
    """Readings of the kernel over a stretch of work, and the scale factor
    for any interval within it.

        with SpeedClock(child=False) as clock:
            p0, t0 = clock.paused, time.perf_counter()
            work()
            t1 = time.perf_counter()
            seconds = t1 - t0 - (clock.paused - p0)
            clock.between()
        factor = clock.factor(t0, t1)
    """

    def __init__(self, child: bool):
        self.child = child
        self.at = []           # perf_counter at each reading
        self.kernel_s = []     # the kernel's time at that reading
        self.paused = 0.0      # wall time spent reading
        self._reading = False
        self._old = None

    def _read(self, *_):
        if self._reading:
            return
        self._reading = True
        t0 = time.perf_counter()
        if self.child:
            subprocess.run(CHILD_KERNEL, check=True)
        else:
            kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.kernel_s.append(t1 - t0)
        self.paused += t1 - t0
        self._reading = False

    def __enter__(self):
        for _ in range(1 if self.child else EDGE_READS):
            self._read()
        if not self.child:
            self._old = signal.signal(signal.SIGALRM, self._read)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        if not self.child:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        for _ in range(1 if self.child else EDGE_READS):
            self._read()
        return False

    def between(self):
        """Call between operations: reads the speed when one is due and no
        timer does it."""
        if self.child and time.perf_counter() - self.at[-1] >= CHILD_EVERY_S:
            self._read()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the mean kernel time of the readings taken
        within SMOOTH_S of [start, end] and the one on either side of
        those.  One reading of the in-process kernel varies by a third
        from the next, more than the speed drifts over a second, so a
        short interval is scaled by the readings of the second around it."""
        lo = max(0, bisect.bisect_left(self.at, start - SMOOTH_S) - 1)
        hi = min(len(self.at), bisect.bisect_right(self.at, end + SMOOTH_S) + 1)
        ks = self.kernel_s[lo:hi]
        return (CHILD_REFERENCE_S if self.child else REFERENCE_S) * len(ks) / sum(ks)


class Unscaled:
    """A clock that reads nothing: times stay as measured."""

    paused = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def between(self):
        pass

    def factor(self, start: float, end: float) -> float:
        return 1.0


def scaled(fn, child: bool):
    """(result, measured seconds, seconds at reference speed) of fn()."""
    with SpeedClock(child) as clock:
        p0, t0 = clock.paused, time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        dt = t1 - t0 - (clock.paused - p0)
    return result, dt, dt * clock.factor(t0, t1)

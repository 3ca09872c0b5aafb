"""Machine speed, sampled while the benchmark measures.

On a shared machine the speed of one core drifts by a quarter or more over
tens of seconds, and the drift moves every wall-clock time a run measures
by nearly the same factor.  A fixed pure-Python kernel of int, big-int and
Fraction arithmetic runs before every operation, and from a SIGALRM handler
every PERIOD_S seconds during set-up and inside long operations; short
operations thus run uninterrupted.  The time of an interval, less the
kernel runs inside it, is divided by the median time of the kernel runs
around it, so one preempted kernel run does not move it.  The result is in
reference seconds: the time the work takes on a machine where one kernel
run takes REF_KERNEL_S.

The kernel runs with the cyclic garbage collector off, so a collection its
allocations trigger lands in the engine's work, where it is measured, and
is not divided out.  The kernel does not track the engine exactly: when the
machine switched between its fast and slow states, the kernel slowed by
about 1.7x and the engine's operations by 1.4-1.55x, so a run spent mostly
in the fast state reads up to about a tenth slower in reference seconds.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
KERNEL_STEPS = 600      # about 1.5 to 3 ms on a 2-core Xeon VM, Python 3.11
WINDOW_S = 0.1          # kernel runs this close to an operation set its speed
REF_KERNEL_S = 0.0025   # defines the reference second


def kernel():
    s, f, b, m = 0, Fraction(0), 3 ** 200, 7 ** 300
    for i in range(1, KERNEL_STEPS):
        s += (i * i) % 7
        f += Fraction(i % 13, (i % 11) + 1)
        b = b * (i | 1) % m
    return s, f, b


class SpeedProbe:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._prev = None

    def __enter__(self):
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev)
        runs = sorted(zip(self.starts, self.ends))
        self.starts, self.ends = [s for s, _ in runs], [e for _, e in runs]

    def sample(self):
        """Run the kernel now and restart the period: an operation started
        next is interrupted only if it outlasts PERIOD_S."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def reference_s(self, a, b):
        """Reference seconds of the work done between perf_counter times a and b."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        busy = (b - a) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_left(self.starts, b + WINDOW_S)
        near = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if not near:
            raise RuntimeError("no speed sample near an operation")
        return busy * REF_KERNEL_S / statistics.median(near)

    def kernel_median_s(self):
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

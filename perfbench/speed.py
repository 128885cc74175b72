"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one virtual CPU drifts: a fixed loop of
Python code takes 20 ms for a quarter of a minute and 27 ms the next, and
single bursts vary by a factor of two.  A run of a few passes cannot
average that away, so every time the benchmark reports is calibrated.  A
wall-clock timer interrupts the timed unit every ``interval`` seconds on
average and times a fixed reference computation that does not touch
``bvsigma``.  The unit's wall time, less the time spent in those samples,
is scaled by ``REF_S`` over the median of its samples.  A unit too short
to collect ``WINDOW`` samples borrows the latest ones taken before it.
The result reads as the seconds the unit would take on a host where the
reference takes ``REF_S``; a change to the program moves it as it moves
the wall time, and a change of host speed cancels out.

Samples are taken while the program runs, not between units, because only
those follow the slow-downs the program sees: over 95 runs of a 1.5 s job
the wall time correlated 0.85 with the median of its own samples and 0.45
with samples taken just before and after it.  The gaps between samples
are drawn at random, from a fixed seed, so that they cannot lock in step
with a periodic disturbance such as a scheduler's time slices.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

# Nominal duration of one reference burst: its median over minutes of
# sampling on the machine the benchmark was defined on (Intel Xeon, 2 vCPUs,
# CPython 3.11).  A constant, so calibrated times compare across commits.
REF_S = 0.0013

# Seconds between samples while a unit runs, and the fewest samples a
# unit's calibration rests on.
INTERVAL_S = 0.1
WINDOW = 15

_A = [((i % 5, i % 3), Fraction(i + 1, 7 - i % 4)) for i in range(12)]
_B = [((i % 4, i % 2 + 1), Fraction(2 * i - 5, 3 + i % 5)) for i in range(10)]


def reference() -> int:
    """The fixed reference work: a sparse product of two polynomials with
    tuple monomials and rational coefficients, the shape of the program's
    own inner loop."""
    acc: dict = {}
    for _ in range(2):
        for (ka, ca) in _A:
            for (kb, cb) in _B:
                key = tuple(sorted(ka + kb))
                acc[key] = acc.get(key, 0) + ca * cb
    return len(acc)


def sample() -> float:
    """Seconds one reference burst takes.  A first, untimed burst brings
    the reference back into the caches the program evicted, and the cyclic
    garbage collector is paused, so that a collection of the program's heap
    triggered by the burst's allocations is not charged to the host."""
    paused = gc.isenabled()
    gc.disable()
    try:
        reference()
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if paused:
            gc.enable()


class SpeedProbe:
    """Times units of work and returns them calibrated to ``REF_S``.

    Use as a context manager around the timed loop; it owns SIGALRM and the
    real interval timer while open.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._gaps = random.Random(0)
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._samples: list[float] = []
        self._spent = 0.0
        self._timing = False
        self._old = None

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):  # let the interpreter specialise the reference code
            reference()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _arm(self) -> None:
        gap = self.interval * self._gaps.uniform(0.5, 1.5)
        signal.setitimer(signal.ITIMER_REAL, gap)

    def _tick(self, signum, frame) -> None:
        if not self._timing:  # delivered after the unit ended
            return
        t0 = perf_counter()
        self._samples.append(sample())
        self._spent += perf_counter() - t0
        self._arm()

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (its result, calibrated seconds, raw
        wall seconds less sampling)."""
        self._samples, self._spent = [], 0.0
        self._timing = True
        self._arm()
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            self._timing = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
        wall -= self._spent
        samples = self._samples
        if len(samples) < WINDOW:
            samples = (list(self._recent) + samples)[-WINDOW:] or [sample()]
        self._recent.extend(self._samples)
        return result, wall * REF_S / statistics.median(samples), wall

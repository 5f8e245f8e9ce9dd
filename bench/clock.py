"""A clock that corrects measured intervals for the host's current speed.

On a shared host the speed of one Python thread swings by a factor of up
to two within seconds, which would swamp the differences the benchmark is
meant to show.  While a ``CalibratedClock`` is running, an interval timer
interrupts the benchmark every ``SAMPLE_EVERY_S`` seconds and runs a fixed
reference kernel in the signal handler, on the same thread.  Time spent in
the handler is left out of every interval, and each stretch between two
samples is converted to reference seconds:

    calibrated = raw * REF_SECONDS / (mean of the two samples around it)

that is, the time the stretch would have taken on a host that runs the
reference kernel in ``REF_SECONDS``.  The kernel is exact Gauss-Jordan
inversion over ``Fraction``, like the library's own hot loops, and lives
here so that no change to the library changes it.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

# One reference inversion on an uncontended 2-vCPU x86-64 host, Python 3.11.
REF_SECONDS = 0.00625
SAMPLE_EVERY_S = 0.1


def _reference_kernel() -> None:
    n = 10
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]


class CalibratedClock:
    """Context manager; afterwards ``raw`` and ``calibrated`` convert any
    ``perf_counter`` interval taken while it ran."""

    def __init__(self):
        self.starts: list[float] = []  # handler entry times
        self.ends: list[float] = []  # handler exit times
        self.refs: list[float] = []  # reference kernel durations
        self.tracer = None  # told about handler time, so spans can leave it out
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick that arrives while a sample runs is dropped
            return
        self._busy = True
        start = perf_counter()
        _reference_kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(end - start)
        if self.tracer is not None:
            self.tracer.absorb(perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tracer = None
        self._sample()
        return False

    def _integrate(self, a: float, b: float, weighted: bool) -> float:
        """Sum over the gaps between samples of their overlap with [a, b]."""
        total = 0.0
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            overlap = min(b, self.starts[k + 1]) - max(a, self.ends[k])
            if overlap > 0:
                if weighted:
                    overlap *= 2 * REF_SECONDS / (self.refs[k] + self.refs[k + 1])
                total += overlap
            k += 1
        return total

    def raw(self, a: float, b: float) -> float:
        """Seconds of [a, b] outside the sampling handler."""
        return self._integrate(a, b, False)

    def calibrated(self, a: float, b: float) -> float:
        """Reference seconds of [a, b]."""
        return self._integrate(a, b, True)

    def speeds(self) -> dict[str, float]:
        refs = sorted(self.refs)
        return {
            "nominal": REF_SECONDS,
            "samples": len(refs),
            "min": refs[0],
            "median": refs[len(refs) // 2],
            "max": refs[-1],
        }

"""The machine's speed during a pass, sampled with a fixed reference loop.

The benchmark runs on a few cores of a shared host, whose throughput swings
by itself: the reference loop below takes anywhere from 0.5 to 1 ms from one
moment to the next, and the wall time of the same pass drifts by 20 % or
more over minutes, as other tenants load the host.  Those phases last longer
than a pass, so repeating passes does not average them away.

``SpeedProbe`` times a short reference loop from a SIGALRM handler every
``INTERVAL_S`` seconds of a pass.  The reference loop does the same kind of
work as realforms (``Fraction`` arithmetic in the interpreter), so its speed
at a moment is taken as the machine's speed for the program at that moment.
``factor`` is the mean of ``REFERENCE_S / duration`` over the samples: the
pass's average speed relative to the reference speed.  A pass's wall time
multiplied by it is the time the pass would have taken at the reference
speed; ``REFERENCE_S`` is the loop's typical duration on the 2-vCPU Xeon
(2.1 GHz) on which the benchmark was tuned, so there the two are close.

The time spent in the handler is recorded, so the pass subtracts it from its
wall and CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.1
REFERENCE_S = 0.8e-3
_TERMS = [Fraction(i, i + 7) for i in range(1, 160)]
_THIRD = Fraction(1, 3)


def reference_loop() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += _THIRD * term
    return total


class SpeedProbe:
    """Samples the reference loop's duration while a pass runs."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.spent = 0.0  # seconds inside the handler, to subtract

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.spent += took

    def start(self) -> None:
        reference_loop()  # warm up
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Mean speed over the pass relative to the reference speed."""
        if not self.durations:  # a pass shorter than one interval
            self._sample()
        return statistics.fmean(REFERENCE_S / d for d in self.durations)


"""The host's speed, sampled while the benchmark measures.

The benchmark's host shares its cores with other machines' work: the same
pure-Python loop runs up to twice as fast in one second as in the next,
and a slow or fast regime can hold for minutes. A raw time therefore
measures the host as much as the program. To take the host out, the
benchmark times a fixed calibration, a pure-Python ``Fraction`` loop that
is not part of the program, around and during what it measures, and
reports reference times: the measured time scaled by CAL_REF_S over the
mean calibration time, that is, the time the work would have taken at the
speed at which the calibration takes CAL_REF_S.

During a pass a SIGALRM interval timer runs the calibration every PERIOD_S
seconds in the pass's own thread, between two bytecodes of the program;
the time spent in these interruptions is taken out of every interval that
contains them.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.05
CAL_STEPS = 200
#: Median calibration time on a 2-core Intel Xeon at 2.1 GHz (Python 3.11.7),
#: so that a reference time reads like a wall time on that machine.
CAL_REF_S = 0.0016
#: Median time on the same machine from starting a bare interpreter to its
#: reading the clock. Starting an interpreter (reading, unmarshalling and
#: linking modules) does not speed up and slow down like the calibration
#: does, so set-up times are scaled by bare starts around them instead.
START_REF_S = 0.045


def calibration() -> Fraction:
    total = Fraction(0)
    for k in range(1, CAL_STEPS + 1):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return total


def calibrate(times: int) -> float:
    """Median seconds of ``times`` calibrations run now."""
    seconds = []
    for _ in range(times):
        start = time.perf_counter()
        calibration()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


class Speedometer:
    """Calibrations every PERIOD_S seconds while the ``with`` block runs."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._ticking = False

    def _tick(self, signum=None, frame=None):
        if self._ticking:  # a late signal must not nest in a calibration
            return
        self._ticking = True
        start = time.perf_counter()
        calibration()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        self._ticking = False

    def __enter__(self):
        self._tick()  # a sample before the first interval
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # a sample after the last interval
        return False

    def measure(self, start: float, end: float) -> tuple:
        """(seconds, reference seconds) of the interval ``start..end``.

        The seconds leave out the calibrations inside the interval; the
        reference uses those and the last one before and first one after it.
        """
        first = bisect_left(self.starts, start)
        stop = bisect_right(self.starts, end)
        seconds = end - start - sum(self.seconds[first:stop])
        around = self.seconds[max(first - 1, 0):stop + 1]
        return seconds, seconds * CAL_REF_S / statistics.mean(around)

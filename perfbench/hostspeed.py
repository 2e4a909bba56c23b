"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the speed of the core drifts: on the
2-vCPU VM the first numbers were taken on, the same 4^3x8 propagator
took 1.8 s in one batch of runs and 2.9 s in the next, and an 8^4 dhop
ran anywhere between 14 and 25 ms within one minute.  Fixed
calibration loops — pure Python, and small-array numpy calls — slow
down with the program (the drift is core speed, not steal time), so
timing them next to each operation and scaling by them removes most of
the slow drift: ten-run spreads of the 4^3x8 propagator time fell from
0.28 to 0.10, of the 16^4 dhop from 0.16 to 0.04.  Bursts shorter than
one operation are not removed.

:class:`SpeedTrack` samples the loops before and after each timed
interval (at most every ``interval`` seconds inside a loop of short
operations) and scales an interval's seconds by
``CAL_NOMINAL_S / (mean of the samples bracketing it)``: the result is
seconds on a host where the loops take ``CAL_NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: About the calibration loops' time on the host the first numbers
#: were taken on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4; 7 to
#: 13 ms as its speed drifts); normalised seconds are seconds at that
#: speed.
CAL_NOMINAL_S = 10e-3
CAL_LOOP = 50_000
CAL_NUMPY_REPS = 300


def _python_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return time.perf_counter() - t0


def _numpy_loop() -> float:
    """Small-array ufunc calls and allocations: the per-call dispatch
    that dominates small-lattice work."""
    x = np.ones((256, 4, 3, 2), dtype=np.complex128)
    t0 = time.perf_counter()
    for _ in range(CAL_NUMPY_REPS):
        z = x * x
        z += x
        np.zeros((512, 12, 2), dtype=np.complex128)
    return time.perf_counter() - t0


def calibration_seconds(repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs of the pure-Python loop plus the
    fastest of the numpy loop."""
    return min(_python_loop() for _ in range(repeats)) \
        + min(_numpy_loop() for _ in range(repeats))


class SpeedTrack:
    """Calibration samples over a run, and the scaling they imply."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.times: list = []
        self.values: list = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.values.append(calibration_seconds())
        self.times.append(t)

    def maybe_sample(self) -> None:
        """Sample if ``interval`` has passed since the last sample."""
        if not self.times or \
                time.perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def speed(self, t0: float, t1: float) -> float:
        """Host speed over [t0, t1] relative to nominal (1.0 = the
        reference host), from the samples just before and after."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        picked = [self.values[k] for k in (i, j)
                  if 0 <= k < len(self.values)]
        return CAL_NOMINAL_S / (sum(picked) / len(picked))

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at nominal host speed."""
        return (t1 - t0) * self.speed(t0, t1)

"""Timings scaled to a reference host speed.

Other tenants of the host change this process's speed by up to a factor of
two, for seconds to minutes at a time. On a 2-core sandbox, eight
1.5-second samples of an n = 2 problem1 run took 0.140 to 0.279 ms
(median), while the ratio of that time to the loop below stayed between
0.344 and 0.404. Medians, or fastest repetitions, within one run cannot
remove a swing that lasts longer than the run; the ratio can.

So the benchmark times ``calibration_loop``, which contains no qpag code,
next to its items: at the start of a timed item whenever the last
calibration is older than EVERY_S. Every timing is scaled by REFERENCE_S
over the median of the last WINDOW calibrations. A reported time is thus
the time at the speed at which the loop takes REFERENCE_S, and a change to
qpag moves it while a change in the host's load does not. The loop builds
and sorts a dict keyed by tuples with complex values, the kind of work the
engines do, so it slows down with them; a plain arithmetic loop tracked the
engines less well (0.447 to 0.603).

The calibrations go to the result file, so raw times can be recovered.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.4e-3
EVERY_S = 0.02
WINDOW = 5  # calibrations the scale is the median of


def calibration_loop():
    d = {}
    for i in range(300):
        k = ("q%d" % (i % 5), i % 17, ("a",) * (i % 4))
        d[k] = d.get(k, 0j) + complex(i, 1) * 0.5
    return sorted(d, key=lambda c: c[:2])


class SpeedClock:
    """Scales timings by the host speed measured next to them."""

    def __init__(self):
        self.calibrations = []
        self._last = None
        self._factor = 1.0

    def _calibrate(self):
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.calibrations.append(t1 - t0)
        self._last = t1
        self._factor = REFERENCE_S / statistics.median(self.calibrations[-WINDOW:])

    def start(self):
        """Start a timing; calibrates first when the last one is stale."""
        if self._last is None or perf_counter() - self._last >= EVERY_S:
            self._calibrate()
        return perf_counter()

    def stop(self, t0):
        """Seconds since ``start``, scaled to the reference speed."""
        return (perf_counter() - t0) * self._factor

    def summary(self):
        c = self.calibrations
        return {
            "reference_s": REFERENCE_S,
            "calibrations": len(c),
            "calibration_median_s": statistics.median(c) if c else None,
            "calibration_min_s": min(c) if c else None,
        }

"""Machine-speed probe for reference-speed timings.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to 2x over seconds to minutes, as other tenants come and go; a fixed
pure-Python loop shows the same drift as dvrstat's requests.  The timed
loop therefore runs a short fixed probe between requests (at most every
PROBE_EVERY_S), and each request's latency is also reported scaled to
reference speed: latency * (REFERENCE_PROBE_S / median probe time around
the request) ** ELASTICITY.  The probe is interpreter-bound integer and
list work, like dvrstat; its own time is not part of any request.
"""

import bisect
import statistics
import time

PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.25
# probe time at reference speed, about its median on the 2-core x86_64
# VM the benchmark was defined on
REFERENCE_PROBE_S = 0.002
# Request time moves less than probe time when the machine slows: on
# that VM the slope of log(request time) on log(probe time) was 0.76 to
# 0.93 for sample, ext and b2 requests (820 requests over 100 s), and
# 0.8 gave the steadiest run-level figures.
ELASTICITY = 0.8

_ROWS = [[(i * 7 + j) % 97 for j in range(24)] for i in range(24)]


def probe():
    """Seconds one fixed unit of interpreter-bound work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for r in range(24):
        other = _ROWS[r]
        for row in _ROWS:
            acc = (acc + sum(x * y % 101 for x, y in zip(row, other))) % 1000003
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times along the timed loop, and the scale they imply."""

    def __init__(self):
        self.at, self.took = [], []
        self.last = float("-inf")

    def maybe_probe(self, now):
        if now - self.last >= PROBE_EVERY_S:
            self.took.append(probe())
            self.at.append(now)
            self.last = now

    def scale(self, start, end):
        """(REFERENCE_PROBE_S / median probe time near [start, end]) ** ELASTICITY."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        near = self.took[lo:hi]
        if not near:  # no probe in the window: use the nearest one on each side
            near = self.took[max(lo - 1, 0):lo + 1]
        return (REFERENCE_PROBE_S / statistics.median(near)) ** ELASTICITY

"""Reference work timed around and during requests, to take host speed out
of times.

The benchmark runs on a shared host whose speed changes by up to 1.9x
within seconds and between minutes (the same request, or the same
interpreter start-up, takes that much longer), in CPU time as much as in
wall time.  Longer runs do not average that out.  So the harness times a
fixed piece of reference work -- small complex LAPACK calls and an
interpreter loop, the two kinds of work normlab does, and none of normlab's
code -- in the gap before every request and after the last, and every
TICK seconds during a request (from a SIGALRM handler; its time is taken
out of the request's), and reports each request's time at a nominal host
speed:

    calibrated = measured * REF_SECONDS / (reference time around it)

The reference time around a request is the median of the probes timed
within TAU of it, before, during and after: the neighbours of a short
request, the ticks inside a longer one.  A change to normlab moves
``measured`` and not the reference, so it shows in full; a slow spell of
the host moves both.  ``REF_SECONDS`` is a fixed constant, so calibrated
times of different runs and commits are comparable.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# nominal time of one probe: calibrated seconds are seconds on a host where
# the reference work takes this long (about its median on the 2-vCPU Xeon
# of baseline.json)
REF_SECONDS = 5.0e-4
# how far before and after a request its reference probes may lie
TAU = 0.05
# interval of the probes taken during requests
TICK = 0.1

_rng = np.random.default_rng(20240917)
_A = _rng.standard_normal((24, 24)) + 0.3j * _rng.standard_normal((24, 24))


def probe():
    """Seconds taken by one run of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.inv(_A)
        np.linalg.svd(_A, compute_uv=False)
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    return time.perf_counter() - t0


class Probes:
    """Timed probes of one run, in time order."""

    def __init__(self):
        self.at = []        # perf_counter() when each probe started
        self.took = []      # its duration in seconds
        self.stolen = 0.0   # seconds the ticks took out of requests
        self._busy = False

    def _timed(self):
        # an untimed run first brings the reference work back into the
        # caches the request used, so no probe pays for the request
        probe()
        self.at.append(time.perf_counter())
        self.took.append(probe())

    def burst(self, count):
        """Time ``count`` probes."""
        self._busy = True
        for _ in range(count):
            self._timed()
        self._busy = False

    def gap(self):
        """Probe the host between two requests."""
        self.burst(1)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._timed()
        self.stolen += time.perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Probe the host every TICK seconds while the block runs."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def reference(self, start, end):
        """Median probe time within TAU of [start, end]."""
        lo = bisect.bisect_left(self.at, start - TAU)
        hi = bisect.bisect_right(self.at, end + TAU)
        return statistics.median(self.took[lo:hi])

    def calibrated(self, start, seconds):
        """``seconds`` measured from ``start``, at the nominal host speed."""
        return seconds * REF_SECONDS / self.reference(start, start + seconds)

    def speed(self):
        """Host speed over the run: REF_SECONDS over the median probe."""
        return REF_SECONDS / statistics.median(self.took)

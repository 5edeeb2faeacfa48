"""How fast this host runs Python code at the moment.

The benchmark shares a few cores of a host with other work, and the
speed it gets drifts by up to a factor of two within a minute: a fixed
piece of pure-Python work takes twice as long, in CPU time as well as
in wall time.  Raw op times therefore tell more about the host than
about the program.  ``probe()`` times a fixed kernel that does the kind
of work the program does (tuple keys, dict updates and integer
arithmetic modulo a prime, then a sort).  The speed also changes within
an op of a second, so the benchmark probes right before and right after
each op and, through a ``Sampler``, every ``INTERVAL`` seconds while it
runs.  It scales the op's wall time, less the time of the probes inside
it, by ``REFERENCE_S`` over the median probe: a reported second is a
second at the speed at which the kernel takes ``REFERENCE_S``.  The
kernel is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# the kernel's time at the speed reported times refer to; about its
# fastest typical time on the 2-core host the benchmark was tuned on
REFERENCE_S = 0.004
SAMPLES = 2
INTERVAL = 0.1

_P = 32003
_A = {(i, j, k): (7 * i + 3 * j + 11 * k) % _P + 1
      for i in range(7) for j in range(6) for k in range(3)}
_B = {(k, i, j): (5 * i + 13 * j + k) % _P + 1
      for i in range(6) for j in range(5) for k in range(3)}


def _kernel():
    """Product of two fixed sparse polynomials over F_p."""
    out = {}
    get = out.get
    for (a1, a2, a3), c in _A.items():
        for (b1, b2, b3), d in _B.items():
            m = (a1 + b1, a2 + b2, a3 + b3)
            out[m] = (get(m, 0) + c * d) % _P
    return sorted(out.items())


def probe(samples=SAMPLES):
    """Kernel times of ``samples`` back-to-back runs, with the collector
    off so that garbage the program left does not land in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(samples):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def scale(probes):
    """Factor that turns a wall time measured amid ``probes`` into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(probes)


class Sampler:
    """Context manager that probes once every INTERVAL seconds of wall
    time, from a SIGALRM handler, while its block runs.  ``times`` holds
    the kernel times and ``pause`` the wall time the probes took."""

    def __init__(self):
        self.times = []
        self.pause = 0.0

    def _probe(self, signum, frame):
        start = perf_counter()
        self.times += probe(1)
        self.pause += perf_counter() - start

    def __enter__(self):
        self.times, self.pause = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

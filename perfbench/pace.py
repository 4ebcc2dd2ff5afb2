"""Host speed during a measurement, from a fixed reference computation.

A shared host runs the benchmark at a speed that drifts by a fifth or
more over seconds to minutes (other tenants, clock changes), and every
timing drifts with it.  To take that drift out of the figures, a fixed
pure-Python computation -- exact fractions, dict and tuple work, the
operations qtschur spends its time in -- is timed every ``INTERVAL_S``
seconds while the measured call runs, from a ``SIGALRM`` handler (so in
the same thread, between bytecodes), and ``BRACKET`` times just before
and just after it.  The mean of those durations over ``NOMINAL_S`` is
the host's slowdown during the call, its *pace*; a timing divided by
the pace is the time the call takes at nominal speed.

The reference does not touch qtschur, so a change to the program moves
the scaled timings in full.  Sampling costs about 3% of a measured call,
the same on every commit; the reference's table adds about 2 MB to the
process.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.1
BRACKET = 3
# Median duration of reference() on the host the bounds were set on
# (2 shared vCPUs, CPython 3.11); only ratios of it enter the figures.
NOMINAL_S = 2.8e-3

_rng = random.Random(20211)
_KEYS = [(_rng.randrange(64), _rng.randrange(64), _rng.randrange(8)) for _ in range(8192)]
_TABLE = {key: Fraction(_rng.randint(1, 50), _rng.randint(1, 50)) for key in _KEYS}
_ORDER = [_KEYS[_rng.randrange(len(_KEYS))] for _ in range(300)]


def reference() -> float:
    """Run the reference computation once; return its wall time."""
    start = time.perf_counter()
    acc: dict = {}
    total = Fraction(0)
    for key in _ORDER:
        value = _TABLE[key]
        total += value
        acc[key[:2]] = acc.get(key[:2], 0) + value * value
    return time.perf_counter() - start


class Pace:
    """Reference durations taken around and during one measured call."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @property
    def factor(self) -> float:
        """Slowdown of the host against nominal speed (1.0 = nominal)."""
        return statistics.fmean(self.samples) / NOMINAL_S


@contextmanager
def sampled(bracket: int = BRACKET, interval: float = INTERVAL_S):
    """Sample the host's speed while the body runs; yields a Pace.

    The previous SIGALRM handler and timer are restored on exit.
    """
    pace = Pace()

    def on_alarm(signum, frame):
        pace.samples.append(reference())

    pace.samples.extend(reference() for _ in range(bracket))
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield pace
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    pace.samples.extend(reference() for _ in range(bracket))

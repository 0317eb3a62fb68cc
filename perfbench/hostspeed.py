"""Host speed, sampled while the benchmark runs, to make its times steady.

The host this benchmark was written on is shared, and its speed drifts by up
to 2x within minutes: a fixed loop's 2-second means ranged from 36 to 68 ms
in one minute, and one pass of ``table5b-11`` took 18.3 s in one run and
32.6 s in another.  Raw times therefore vary between runs by more than any
bound worth having.  A timer signal runs a small fixed reference computation
every ``INTERVAL_S`` of wall time, also in the middle of a long check, and
each check's time is divided by the reference times sampled during it.  The
quotient, a time in units of the reference, drifts far less; multiplied by
``NOMINAL_REF_S`` it is reported in seconds of a host running at a fixed
nominal speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.1
# Seconds one reference sample takes on the host this was written on, at its
# usual speed (0.33-0.46 ms seen); converts reference units into seconds.
NOMINAL_REF_S = 0.0004


def _reference_once() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(2000):
        key = (i & 511, i >> 9)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def reference() -> float:
    """Seconds the reference computation takes now: best of three, GC off.

    The collector is off so that a collection of the program's heap does not
    land in the sample; the best of three drops an interrupt.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_reference_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """While entered, samples the reference every INTERVAL_S (SIGALRM)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, reference, handler time)
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        ref = reference()
        self.samples.append((start, ref, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds the sampler itself ran within [start, end]."""
        return sum(d for t, _r, d in self.samples if start <= t <= end)

    def nominal(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done within [start, end], at nominal host speed.

        Uses the samples taken within one interval of the window, or the
        nearest one if there is none.
        """
        near = [r for t, r, _d in self.samples if start - INTERVAL_S <= t <= end + INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return seconds * NOMINAL_REF_S / statistics.mean(near)

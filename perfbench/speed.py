"""Host-speed probe: puts timings on a shared host onto one speed scale.

On a few cores of a shared host the same Python code runs up to about twice
as slow while other tenants load the physical cores, and that state flips
every few milliseconds to every few seconds.  A unit of work that takes a
second averages over many flips, so repeating it and taking the minimum does
not help: on the 2-core KVM guest the benchmark was tuned on, the best of
seven 1.5 s batch searches still ranged over 1.47-1.93 s.

``SpeedProbe`` samples the host's speed while the benchmark runs.  A SIGALRM
timer runs a short, fixed piece of pure-Python work (``probe_work``) every
``INTERVAL_S`` seconds of wall time, in the benchmark's own thread, and
records when it started and how long it took.  A timed unit's normalised time
is its wall time minus the probes that ran inside it, scaled by ``REF_S``
over the mean probe time around it: the time the unit would take on this
host when the probe takes ``REF_S``.  The probe allocates no objects the
garbage collector tracks, so it never triggers a collection of foreman's
objects, and it calls nothing in foreman, so a change to foreman cannot
change the scale.  On the same guest, between two sets of ten oracle runs,
the median wall-clock pass time moved by +57% and the normalised one by
-0.8%.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from itertools import accumulate

INTERVAL_S = 0.01
PROBE_LOOPS = 600
# About the probe's time, fired inside foreman's work, on an uncontended
# core of the machine the benchmark was tuned on (Xeon, Sapphire Rapids
# class, KVM guest, Python 3.11): normalised seconds are seconds at that
# speed.  A fixed constant, so normalised times from different runs and
# commits compare directly.
REF_S = 1.3e-4
# a unit with fewer probes inside it takes its speed from this many probes
# nearest to it in time
NEAREST = 8

_TABLE = dict.fromkeys(range(64), 0)


def probe_work(loops: int = PROBE_LOOPS) -> int:
    """Fixed work: dict reads and writes, int arithmetic and str building."""
    d = _TABLE
    s = 0
    for i in range(loops):
        k = i & 63
        d[k] = d[k] ^ i
        s += len(str(i))
    return s


class SpeedProbe:
    def __init__(self):
        self.at = array("d")  # probe start times, ascending
        self.dur = array("d")
        self._busy = False
        self._cum: list[float] | None = None
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a probe that overran its interval
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.dur.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._cum = [0.0, *accumulate(self.dur)]

    def overhead_share(self) -> float:
        """Share of the probed wall time spent in probes."""
        span = self.at[-1] + self.dur[-1] - self.at[0]
        return sum(self.dur) / span if span > 0 else 0.0

    def normalise(self, start: float, dur: float) -> float:
        """Normalised time of a unit that started at ``start`` (perf_counter)
        and took ``dur`` wall seconds.  Call after ``stop``."""
        at, cum = self.at, self._cum
        n = len(at)
        if cum is None or n < NEAREST:
            raise RuntimeError(f"speed probe has {n} samples, needs {NEAREST}; call stop() after a longer run")
        i0 = bisect.bisect_left(at, start)
        i1 = bisect.bisect_left(at, start + dur)
        inside = cum[i1] - cum[i0]
        if i1 - i0 >= NEAREST:
            lo, hi = i0, i1
        else:
            lo = max(0, min((i0 + i1 - NEAREST) // 2, n - NEAREST))
            hi = lo + NEAREST
        speed = (cum[hi] - cum[lo]) / (hi - lo)
        return (dur - inside) * REF_S / speed

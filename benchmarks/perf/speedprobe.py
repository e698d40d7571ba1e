"""Host speed, sampled while a run measures, to scale timings to one speed.

The benchmark runs on shared machines whose speed drifts: for seconds to
minutes at a time, the same pass can take up to twice as long, and CPU
time grows with wall time, so the process is not waiting. A best or median
pass within one run cannot remove a slow phase that lasts the whole run.

:class:`SpeedProbe` therefore times a small fixed pure-Python loop from a
``SIGALRM`` handler every :data:`INTERVAL_S` of wall time. The handler runs
between two bytecodes of the code under measurement, so the probes see the
speed the measured code gets at that moment. The probe touches no state of
the simulator. :meth:`SpeedProbe.scaled` turns a measured interval into
seconds at the reference speed, the speed at which one probe takes
:data:`REFERENCE_S`. It cuts the interval at the probes and scales each
piece by the local probe time, the median of the :data:`LOCAL_PROBES`
probes around the piece::

    scaled = sum(piece * (REFERENCE_S / local probe time) ** EXPONENT)

Scaling piece by piece follows a speed change in the middle of a pass,
which one factor for the whole pass cannot. A change to the code under
measurement moves the scaled time as it moves the wall time; a change of
host speed moves the probe as well and mostly cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from typing import Any, Callable

#: Wall time between two probes.
INTERVAL_S = 0.002
#: Iterations of the probe loop. It works on small ints only, so it
#: allocates nothing and cannot move a garbage collection.
PROBE_LOOPS = 200
#: Probe time at the reference speed: about the uncontended speed of a
#: 2-core x86-64 VM with Python 3.11.
REFERENCE_S = 1e-5
#: How much more the simulator slows than the probe when the host is
#: contended: its pass time grows as the probe time to this power. The
#: probe loop keeps its data in registers, while the simulator walks a
#: heap of tens of MB. Measured over ten minutes of a 2-core VM: 1.2 to
#: 1.3 for the replays, 1.0 for the report.
EXPONENT = 1.2
#: Probes whose median is the local probe time: 50 ms of wall time, so a
#: probe that an interrupt lengthened does not count.
LOCAL_PROBES = 25


class SpeedProbe:
    """Probe times, collected from ``SIGALRM`` while the probe is entered."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Start of each probe, in ``clock`` time, ascending.
        self.at = array("d")
        #: Duration of each probe.
        self.took = array("d")
        self._factors: list[float] = []
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        clock = self._clock
        start = clock()
        x = 0
        for i in range(PROBE_LOOPS):
            x = (x + i) & 255
        self.took.append(clock() - start)
        self.at.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factors(self) -> list[float]:
        """At each probe, the factor that scales wall time to the reference."""
        n = len(self.took)
        if n < LOCAL_PROBES:
            raise ValueError(f"{n} speed probes; at least {LOCAL_PROBES} needed")
        if len(self._factors) != n:
            half = LOCAL_PROBES // 2
            self._factors = [
                (REFERENCE_S / statistics.median(self.took[max(0, i - half):i + half + 1]))
                ** EXPONENT for i in range(n)]
        return self._factors

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in seconds at the reference speed.

        The piece up to each probe is scaled by the factor of the probe
        before it; pieces before the first probe use the first one.
        """
        factors, at = self.factors(), self.at
        first = bisect.bisect_right(at, start)
        last = bisect.bisect_right(at, end)
        i = max(0, first - 1)
        total, t = 0.0, start
        for j in range(first, last):
            total += (at[j] - t) * factors[i]
            t, i = at[j], j
        return total + (end - t) * factors[i]

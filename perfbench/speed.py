"""Host-speed probe: reports times at a fixed reference speed.

The machines this benchmark runs on are shared, and their speed for this
kind of code swings by up to half over seconds to minutes (neighbours
competing for the core and its caches).  Process CPU time swings with it,
and medians over repetitions do not remove it, because a slow phase can
outlast a whole run.

So every timed process also samples its own speed while it works: a
profiling timer interrupts it every PROBE_INTERVAL_S of CPU time and times
one fixed probe, a product of two small dicts of Fractions shaped like the
library's inner loop but not using it.  A measured interval is then
reported as the time it would take on a reference host, where one probe
takes REFERENCE_PROBE_S:

    reported = measured * REFERENCE_PROBE_S / mean probe time

The probe is kept apart from the program it samples, so that what the
program does moves the reported times as it moves the raw ones:
  - the cyclic garbage collector is off while a probe runs, so a probe
    never pays for a collection of the program's heap;
  - a probe is timed in CPU time of its own thread, so the time other
    threads of the program hold the interpreter lock does not count;
  - the mean is taken after dropping the slowest and the fastest TRIM of
    the samples, so one stray sample does not move a run.
The mean, not the median, because host speed comes in phases: the probe
times of one repetition fall into a fast and a slow cluster, and the
program's time is the sum over both.  Over 24 fresh closed10 processes
(Intel Xeon, 2 vCPU, Python 3.11.7), raw time / probe time varied by
2.8% (coefficient of variation) with the mean, 3.0% with the trimmed
mean and 8.2% with the median; the raw time alone varied by 17%.

The probes cost about 2% of the run, on every commit alike; the raw
times are kept in the run's record line.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 1e-3
SETUP_PROBES = 40  # probes timed right after a set-up-only process is ready
TRIM = 0.05

_P = {(i, j): Fraction(i - j + 1, i + 2 * j + 3) for i in range(4) for j in range(3)}
_Q = {(j, i): Fraction(2 * i + 1, j + 5) for i in range(4) for j in range(3)}


def _probe():
    out = {}
    for (a1, b1), c1 in _P.items():
        for (a2, b2), c2 in _Q.items():
            k = (a1 + a2, b1 + b2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def time_probe() -> float:
    """CPU seconds of this thread spent in one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.thread_time()
        _probe()
        return time.thread_time() - t
    finally:
        if enabled:
            gc.enable()


def mean_probe(samples) -> float:
    """The mean of the samples without the slowest and fastest TRIM."""
    samples = sorted(samples)
    k = int(len(samples) * TRIM)
    return statistics.mean(samples[k:len(samples) - k])


class SpeedProbe:
    """Samples the probe time on SIGPROF while a measured interval runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_timer(self, signum, frame):
        self.samples.append(time_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # an interval shorter than one timer period
            self.samples.append(time_probe())
        return False

    def mean(self) -> float:
        return mean_probe(self.samples)


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s

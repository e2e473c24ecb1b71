"""Host-speed sampling, so that timings read as seconds at a reference speed.

On a shared host the processor's throughput for this process changes from
moment to moment, whatever the process does. On the 2-vCPU Xeon VM the
benchmark was written on, a fixed piece of Fraction arithmetic ran at one of
two speeds about 2x apart, switching every 10-200 ms, and the share of slow
time drifted over minutes; one unchanged pass of a workload read 11 s and
20 s a quarter of an hour apart, with CPU time equal to wall time.

While sampling, a SIGPROF timer runs a small fixed probe (Fraction arithmetic
owned by the benchmark, so no change to the program moves it) every PERIOD_S
of CPU time and records how long it took. A probe's speed is REFERENCE_S
over its time. An interval's time at reference speed is its wall time, less
the probes run inside it, times the mean speed of the probes taken during it
(widened to the nearest MIN_PROBES for short intervals). REFERENCE_S is the
probe's time at full speed on that VM, so there the scaled times read as
the wall times of an uncontended run. Estimating the full-speed probe time
afresh in every run instead (from its fastest probes) left wall_s of five
pipeline-t3 runs 7% apart (quartile spread); a fixed reference, 1%.
"""

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.005
MIN_PROBES = 16
REFERENCE_S = 70e-6

_PAIRS = tuple(
    (Fraction(7 * k + 3, 11 + k % 9), Fraction(5 * k + 2, 13 + k % 7)) for k in range(10)
)


class HostSpeed:
    def __init__(self):
        self.samples = []  # (start, end) of each probe
        self.starts = self.ends = ()
        self._previous = None

    def _probe(self, signum=None, frame=None):
        t0 = perf_counter()
        acc = Fraction(0)
        for a, b in _PAIRS:
            acc = acc + a * b - b / a
        self.samples.append((t0, perf_counter()))

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.samples.sort()
        self.starts = [t0 for t0, _ in self.samples]
        self.ends = [t1 for _, t1 in self.samples]
        if len(self.samples) < MIN_PROBES:
            raise RuntimeError(f"only {len(self.samples)} host-speed probes were taken")

    def _durations(self, lo, hi):
        return (self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scaled_s(self, t0, t1):
        """Seconds the work done in [t0, t1] takes at reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = t1 - t0 - sum(self._durations(lo, hi))
        while hi - lo < MIN_PROBES:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        speeds = [REFERENCE_S / d for d in self._durations(lo, hi)]
        return busy * sum(speeds) / len(speeds)

    def summary(self):
        """Probe count, the fastest and median probe times, the slow share."""
        durations = sorted(self._durations(0, len(self.starts)))
        slow = sum(d > 1.5 * REFERENCE_S for d in durations)
        return {"probes": len(durations), "probe_min_us": durations[0] * 1e6,
                "probe_median_us": statistics.median(durations) * 1e6,
                "probe_slow_share": slow / len(durations)}

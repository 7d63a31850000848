"""Host-speed correction for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x within seconds, as other tenants load it.  The slowdown shows in
process CPU time as well as in wall time, so neither can be read raw: two
sets of runs of the same code differ by more than any useful bound.

``HostSpeed`` measures that speed while the workload runs.  A timer signal
interrupts the pass every ``INTERVAL_S`` and runs ``probe``, a fixed piece
of work made of the same kind of calls pintlab makes (small dense solves,
matrix-vector products, norms, interpreter loops).  The time between two
probes is workload time; it is scaled by ``NOMINAL_PROBE_S`` over the
median duration of the probes around it.  Probe time itself is left out of
both the raw and the adjusted figures.  The result is the pass's time at a
fixed host speed: the speed at which one probe takes ``NOMINAL_PROBE_S``,
about a quiet moment on a 2-vCPU x86-64 cloud VM.

The probe's arrays and functions are bound when this module is imported,
so a tracer installed later never sees the probe's calls.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_PROBE_S = 1.5e-3
INTERVAL_S = 0.1
WINDOW = 5  # probes whose median gives the speed of one interval
BURST = 40  # probes after set-up, which runs before numpy is imported

_lu_factor, _lu_solve, _norm = scipy.linalg.lu_factor, scipy.linalg.lu_solve, np.linalg.norm
_rng = np.random.default_rng(20250317)
_A = _rng.standard_normal((16, 16)) + 16.0 * np.eye(16)
_LU = _lu_factor(_A)
_V = _rng.standard_normal(16)


def probe():
    """A fixed ~1.5 ms of numeric and interpreter work."""
    x, s = _V, 0
    for _ in range(100):
        x = _lu_solve(_LU, x, check_finite=False)
        x = _A @ x
        x = x / _norm(x)
        for j in range(30):
            s += j * j
    return s


def timed_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def adjust_setup(raw_s):
    """Scale a set-up time by the host speed measured right after it."""
    probe()  # first calls pay one-off costs
    return raw_s * NOMINAL_PROBE_S / statistics.median(timed_probe() for _ in range(BURST))


class HostSpeed:
    """Context manager that probes the host's speed while its body runs.

    ``wall_s``/``cpu_s`` are the body's wall and process CPU time without
    the probes; ``adj_wall_s``/``adj_cpu_s`` are the same at the nominal
    host speed (CPU time is scaled by the same factor as wall time).
    """

    def __enter__(self):
        probe()
        self._marks = []  # (wall start, wall end, cpu spent) of each probe
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._cpu0 = time.process_time()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self._marks.append((t0, t1, time.process_time() - c0))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        cpu = time.process_time() - self._cpu0
        signal.signal(signal.SIGALRM, self._old)
        marks = self._marks
        # workload time before each probe, and after the last one
        starts = [self._start] + [t1 for _, t1, _ in marks]
        stops = [t0 for t0, _, _ in marks] + [end]
        gaps = [b - a for a, b in zip(starts, stops)]
        # too short for the timer: one probe after the body gives the speed
        durations = [t1 - t0 for t0, t1, _ in marks] or [timed_probe()]
        adjusted = 0.0
        for i, gap in enumerate(gaps):
            lo = min(max(0, i - WINDOW // 2), max(0, len(durations) - WINDOW))
            adjusted += gap * NOMINAL_PROBE_S / statistics.median(durations[lo:lo + WINDOW])
        self.wall_s = sum(gaps)
        self.cpu_s = cpu - sum(c for _, _, c in marks)
        self.adj_wall_s = adjusted
        self.adj_cpu_s = self.cpu_s * adjusted / self.wall_s
        return False

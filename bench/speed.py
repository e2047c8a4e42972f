"""Machine-speed reference for the end-to-end timings.

On the shared machine this benchmark was built on, the same ray took from
0.09 s to 0.21 s depending on what else the host was running, in phases
that last from seconds to minutes, so 36 s runs of identical code differed
by 30% and no bound could tell a regression from the weather.  A fixed
reference kernel timed next to each op slows down with the machine: over
3 s windows the ray time varied with a coefficient of variation of 0.22,
the ray time divided by the reference time with 0.077.

So each end-to-end time is reported scaled to a nominal machine speed:
``wall seconds * NOMINAL_S / reference seconds``.  The machine also
switched between a fast and a slow state (reference 0.23 ms against
0.39 ms) several times a second, within single ops, so the reference is
sampled while the op runs: a SIGALRM every ``PERIOD_S`` times the
reference once more, and the op's time is its wall time minus the time
spent in those samples.  On 204 rays of ``ray-schwarzschild`` in one run,
p90/p50 of the ray time was 1.34 in wall seconds, 1.10 scaled by
references timed just before and after each ray, and 1.03 scaled by
references sampled during it too (14 samples per ray, 4% of its time).

The reference calls nothing from diracsym (only numpy and plain Python, on
the 4x4 sizes and the call mix the library uses), so a change to the
library moves the scaled time exactly as much as the wall time.  The
wall-clock figures are printed in the details line next to them.
"""
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Between the reference's time in the fast and the slow state of the
# machine the benchmark was built on, so scaled and wall times are alike.
NOMINAL_S = 2.6e-4
# Sampling period inside an op: several samples per ray, each about 0.3 ms.
PERIOD_S = 0.01

_rng = np.random.default_rng(0)
_G = np.diag([-1.0, 1.2, 3.0, 4.0]) + 0.01 * _rng.standard_normal((4, 4))
_G = 0.5 * (_G + _G.T)
_T = _rng.standard_normal((4, 4, 4)) + 1j * _rng.standard_normal((4, 4, 4))
_V = _rng.standard_normal(4)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(6):
        z = np.linalg.solve(_G, _V)
        gi = np.linalg.inv(_G)
        m = np.einsum("m,mij->ij", z, _T)
        b = np.einsum("kij,kjl->il", _T, _T)
        c = m @ b - b @ m
        float(np.linalg.norm(c)) + float(np.max(np.abs(gi)))
        tuple(x + 0.5 * y for x, y in zip((z, m), (_V, c)))
    return time.perf_counter() - t0


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the block, samples excluded
    factor: float = 1.0   # nominal seconds per wall second


class Meter:
    """Times blocks of code, each with its own speed factor.

    The reference is timed just before and just after each block and, with
    ``sample``, every ``PERIOD_S`` inside it from a SIGALRM handler, which
    runs in the main thread.  Blocks must not nest.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self._samples = []
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self._samples.append(reference_seconds())

    @contextlib.contextmanager
    def timed(self):
        timing = Timing()
        before = reference_seconds()
        self._samples = []
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            inside = self._samples
            timing.seconds = t1 - t0 - sum(inside)
            timing.factor = NOMINAL_S / statistics.mean(
                [before, *inside, reference_seconds()])

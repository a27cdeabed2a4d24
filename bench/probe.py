"""Machine-speed probe: a short fixed kernel, run from a timer signal while work runs.

This machine's speed drifts by up to 2x within a minute, at every time scale
down to tens of milliseconds, and wall times follow it.  While timed work
runs, a timer signal runs a short fixed pure-Python kernel every PERIOD_S,
and BOUNDARY more runs of it come before and after.  The work's own time
(wall time minus kernel time) is reported in reference seconds: scaled by
REF_S over the kernel time, averaged as speeds (harmonic mean).  REF_S is
close to the kernel's time on an idle core of the 2-core machine the bounds
in BENCHMARK.json were set on.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 1000
PERIOD_S = 0.01
BOUNDARY = 5
REF_S = 1.0e-4


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(LOOPS):
        acc += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


class Probe:
    """Collects kernel times from a timer signal between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def boundary() -> list[float]:
    return [kernel_seconds() for _ in range(BOUNDARY)]


def reference_seconds(wall: float, kernels: list[float], inside: float) -> float:
    """Work time (wall minus the ``inside`` kernel seconds) at reference speed."""
    return (wall - inside) * statistics.fmean(REF_S / k for k in kernels)

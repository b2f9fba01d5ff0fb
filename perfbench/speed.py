"""CPU-speed probe, so that timings can be given at a fixed reference speed.

On a shared host the speed of one CPU drifts by up to 2x within seconds, as
other tenants load the machine. Raw wall times then spread by more than
any useful regression bound. The probe times a fixed pure-Python kernel ten
times a second, from a SIGALRM handler that runs between the benchmark's own
bytecodes. An interval's work in reference seconds is its wall time (probe
time excluded) times REFERENCE_S / k, averaged over the kernel times k
sampled in it. That is the time the interval would take at the speed where
the kernel takes REFERENCE_S. The probe costs about 1% of the time it
watches. Uses the standard library only, so ``run.py`` can start it before
``import cdfpool``.
"""

import json
import signal
import time

KERNEL_ITERATIONS = 20_000
REFERENCE_S = 1.0e-3  # the kernel's time on an unloaded 2-vCPU x86-64 VM
INTERVAL_S = 0.1


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return total


class SpeedProbe:
    """Kernel times sampled while running; ``reference_seconds`` converts intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)

    def load(self, path) -> None:
        """Add the samples another process saved (perf_counter is system-wide on Linux)."""
        with open(path, encoding="utf-8") as fh:
            self.samples.extend(tuple(s) for s in json.load(fh))

    def reference_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [t0, t1), both without probe time.

        An interval too short to hold a sample uses the sample nearest to it.
        """
        if not self.samples:
            self._tick(None, None)
        inside = [k for t, k in self.samples if t0 <= t < t1]
        wall = t1 - t0 - sum(inside)
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        speed = sum(REFERENCE_S / k for k in inside) / len(inside)
        return wall, wall * speed

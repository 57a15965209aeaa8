"""Machine speed, sampled by a fixed reference kernel inside each round.

On a shared host the same code runs up to 1.8x slower for stretches of
seconds to a minute, whatever the program does, and the slowdown is not the
same on both cores.  So each round process times a short reference kernel
itself: a few times right before and after the measured section, and every
SAMPLE_EVERY_S seconds during it, from a SIGALRM handler in the round's main
thread.  The handler's time is taken out of the measured time, and every
time the benchmark reports is multiplied by NOMINAL_S over the median kernel
time of the round.

The kernel mixes what nullrec spends its time on: interpreted Python
arithmetic, short numpy ufunc passes over a lane-sized vector (as in the
Euler loop) and a streaming pass of Philox draws and a cumsum.  It uses no
nullrec code, so no change to the program moves it; only the machine does.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Reported times are scaled to a machine on which the kernel takes this long
# (about its time on the 2-core reference machine when it runs unhindered).
NOMINAL_S = 0.008
SAMPLE_EVERY_S = 0.25
EDGE_SAMPLES = 3


class Sampler:
    """Kernel times of one round; ``spent`` is the handler time inside ``running``."""

    def __init__(self):
        import numpy as np

        x = np.linspace(-5.0, 5.0, 2048)
        rng = np.random.Generator(np.random.Philox(7))
        # preallocated, so the kernel does not move the round's peak RSS
        draws, path = np.empty(150_000), np.empty(150_000)

        def kernel() -> float:
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(30_000):
                acc += i * 0.5
            y = x
            for _ in range(150):
                y = np.sin(y) * 0.5 + x / (1.0 + x * x)
            rng.standard_normal(out=draws)
            np.cumsum(draws, out=path)
            return time.perf_counter() - t0

        self._kernel = kernel
        self.samples = []
        self.spent = 0.0

    def edge(self) -> None:
        """Samples taken outside the measured section."""
        self.samples += [self._kernel() for _ in range(EDGE_SAMPLES)]

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self._kernel())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        """Sample every SAMPLE_EVERY_S seconds until exit."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """NOMINAL_S over the median kernel time.

        The median, because samples taken while the round's own worker
        processes hold both cores (``rate``) measure the workload, not the
        machine.
        """
        return NOMINAL_S / statistics.median(self.samples)

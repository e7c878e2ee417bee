"""Speed reference for timing on a shared CPU whose speed drifts.

On a shared VM the speed of a vCPU changes by up to 1.7x within a minute,
because other tenants contend for the host.  Such a change moves every time
measured on that vCPU, so run-to-run spreads of raw times reach 20-40%.

``Watch(probe)`` runs two fixed calibration kernels every
``PERIOD_S`` seconds in a background thread while a child process runs.
The harness pins itself and its children to one vCPU, so the kernels
measure the speed of the vCPU the child runs on.  ``Watch.factor(w)`` is
``REFERENCE_S`` divided by a geometric mean of the two kernels' mean times,
with weight ``w`` on the Python kernel.  A time multiplied by it is the
time at reference speed.

The two kernels stand for the two kinds of work ontoembed does:
Python-level float formatting and dict work (``embed`` output, NEL ranking,
interpreter start-up), and numpy table lookups, means, small matrix
products and scatter-adds (pooling, training).  Python-bound commands slow
down like the Python kernel; training commands slow down less, like an
even mix of the two.  The harness picks the weight per command.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.0004
PERIOD_S = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(240)
        self.table = rng.standard_normal((4096, 48))
        self.weights = rng.standard_normal((48, 96))
        self.rows = rng.integers(0, 4096, size=(128, 6))

    def python_s(self) -> float:
        """CPU time of fixed float formatting and dict work."""
        start = time.thread_time()
        seen = {}
        for i in range(4):
            text = ",".join(repr(float(x)) for x in self.values[60 * i:60 * (i + 1)])
            seen[text[:12] + str(i)] = len(text)
        return time.thread_time() - start

    def numpy_s(self) -> float:
        """CPU time of fixed numpy lookups, matrix products and scatter-adds."""
        start = time.thread_time()
        pooled = self.table[self.rows].mean(axis=1)
        np.tanh(pooled @ self.weights).sum()
        grad = np.zeros_like(self.table)
        np.add.at(grad, self.rows[:, 0], pooled)
        return time.thread_time() - start


class Watch:
    """Samples the probe until the ``with`` block ends."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.python: list[float] = []
        self.numpy: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.python.append(self.probe.python_s())
            self.numpy.append(self.probe.numpy_s())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Watch":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, python_weight: float) -> float:
        unit = (statistics.mean(self.python) ** python_weight
                * statistics.mean(self.numpy) ** (1.0 - python_weight))
        return REFERENCE_S / unit

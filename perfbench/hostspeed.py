"""Host-speed probe: fixed work, independent of ecsched, timed beside every operation.

On a shared VM the same single-threaded work takes up to 1.9 times the
CPU time while other tenants load the host, in phases that last from
seconds to minutes.  A run that falls into a slow phase is slow in every
timing, so medians over the run cannot remove it.  The probe measures
the slow-down directly: it times three small fixed kernels (numpy
element-wise work, plain interpreter work and a small matmul) and
returns the geometric mean of their times over their reference times.
The harness probes after every operation and divides the operation's
time by the mean of the probes on either side of it, so every timing it
reports is the time at the reference speed.

The kernels use no ecsched code, so a change to the package never moves
the probe; only the host does.
"""

import math
import time

import numpy as np

# CPU seconds of each kernel at the reference speed: medians on a 2-core
# x86-64 VM.  They fix the unit of the reported times, nothing else.
REFERENCE_S = {"elementwise": 0.0125, "interpreter": 0.0065, "matmul": 0.0084}


class Probe:
    """Callable that returns the host's current slow-down (1.0 = reference)."""

    def __init__(self, clock=time.process_time):
        rng = np.random.default_rng(0)
        self.clock = clock
        self._rows = rng.random((64, 4096))
        self._scale = rng.random(4096)
        self._x = rng.random((2000, 64))
        self._w = rng.random((64, 64)) / 8.0

    def elementwise(self):
        total = 0.0
        for _ in range(12):
            scaled = self._rows * self._scale
            total += float(np.maximum(scaled, 0.3).sum(axis=1).max())
            total += int(np.argmax(scaled, axis=1)[0])
        return total

    def interpreter(self):
        total = 0
        for i in range(60_000):
            total += (i * i) % 7
        return total

    def matmul(self):
        x = self._x
        for _ in range(6):
            x = np.tanh(x @ self._w)
        return x

    def __call__(self):
        logs = []
        for name, reference in REFERENCE_S.items():
            start = self.clock()
            getattr(self, name)()
            logs.append(math.log(max(self.clock() - start, 1e-9) / reference))
        return math.exp(sum(logs) / len(logs))

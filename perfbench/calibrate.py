"""A short fixed reference workload that measures how fast the host runs now.

On a shared 2-vCPU Xeon VM the speed of a core drifts by up to 2x within
fractions of a second as well as over minutes (the process's CPU time grows
with its wall time, so the core runs slower; the process is not waiting).
A run of the benchmark a few minutes after another one can read 1.5x slower
with the same code, and the slowest tenth of the rounds of a run is mostly
the host's slow moments.

So a pass lays down a ``Timeline``: at every round boundary it times this
reference, about a millisecond long, and each stretch of program time
between two marks is scaled by ``REFERENCE_S`` over the mean of the two
references around it. A stretch reads as on a host that runs the reference
in ``REFERENCE_S``. The time spent in the references is left out. The
reference is the benchmark's own code and calls nothing of the program, so
a change to the program moves the scaled times as much as the raw ones.

The reference mixes the three kinds of work the program does: arithmetic on
Python ints modulo 2^61 - 1 (field kernels, masks, shares), small numpy
gradient steps (local training) and heap, dict and struct work (the event
loop and message packing).
"""

from __future__ import annotations

import heapq
import statistics
import struct
from time import perf_counter

import numpy as np

# Nominal time of one reference. It sets the scale only: it is near the fast
# end of what the reference took on the VM described above (1-2 ms), so
# scaled times read close to raw times on a quiet host.
REFERENCE_S = 0.001

_P = (1 << 61) - 1


def _field_work() -> int:
    a, b = list(range(1, 501)), list(range(7, 507))
    for _ in range(8):
        a = [(x * y + 12345) % _P for x, y in zip(a, b)]
    return a[0]


def _numpy_work() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 10))
    y = (rng.random(40) > 0.5).astype(float)
    w = np.zeros(10)
    for _ in range(40):
        z = 1.0 / (1.0 + np.exp(-(x @ w)))
        w = w - 0.5 * (x.T @ (z - y)) / 40
    return float(w[0])


def _object_work() -> int:
    heap: list = []
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    packed = {}
    while heap:
        t, i = heapq.heappop(heap)
        packed[(t, i)] = struct.pack(">IQ", i, t)
    return len(packed)


class Timeline:
    """Marks laid down in one pass, each with the reference timed at it.

    An uncalibrated timeline (for traced passes, whose spans should hold
    only the program) runs no reference and scales nothing.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.starts: list[float] = []  # host time when a mark began
        self.ends: list[float] = []  # host time when its reference ended
        self.references: list[float] = []

    def mark(self) -> int:
        """Time the reference now; return the mark's index."""
        start = perf_counter()
        if self.calibrated:
            _field_work()
            _numpy_work()
            _object_work()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.references.append(end - start if self.calibrated else REFERENCE_S)
        return len(self.starts) - 1

    def raw_s(self, a: int, b: int) -> float:
        """Program time from mark a to mark b, the references left out."""
        return sum(self.starts[i + 1] - self.ends[i] for i in range(a, b))

    def scale(self, a: int, b: int) -> float:
        """Factor from host time to reference time for a stretch from mark a to b."""
        return 2 * REFERENCE_S / (self.references[a] + self.references[b])

    def scaled_s(self, a: int, b: int) -> float:
        """``raw_s(a, b)``, each stretch between neighbouring marks scaled."""
        return sum((self.starts[i + 1] - self.ends[i]) * self.scale(i, i + 1)
                   for i in range(a, b))

    def reference_ms(self) -> float:
        return statistics.median(self.references) * 1e3

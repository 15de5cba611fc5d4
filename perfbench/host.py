"""A probe of the host's current speed, to factor out its drift.

On a shared machine the same operation can take twice as long for
minutes at a time while other tenants load the host.  The probe runs a
fixed kernel -- an exact row reduction in plain Python ints, then numpy
row operations on narrow and on wide rows, the kinds of work stabrel
does at small and at large widths -- that shares no code with stabrel,
so no change to the engine moves it.  Different work slows by
different amounts: on one loaded host the Python-int and narrow parts
alone overstated the slowdown of the benchmark's operations by up to a
third and the wide part alone understated it; their sum came closest.
Dividing a time measured around the probe by

    factor = median probe time / NOMINAL_S

gives the time the host would have taken at its nominal speed: the
speed at which the kernel takes NOMINAL_S, about what an unloaded
2-core x86_64 virtual machine gives.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from fp import rref

NOMINAL_S = 2.0e-3


class HostSpeed:
    def __init__(self):
        rng = random.Random(0)
        self.rows = [[rng.randrange(5) for _ in range(24)] for _ in range(16)]
        self.narrow = np.array(self.rows, dtype=np.int64)
        self.wide = np.array([[rng.randrange(5) for _ in range(512)]
                              for _ in range(64)], dtype=np.int64)

    def kernel(self) -> None:
        rref(self.rows, 5)
        for a, count in ((self.narrow.copy(), 200), (self.wide.copy(), 60)):
            height = a.shape[0]
            for i in range(count):
                a[i % height] = (a[i % height] * 3 + a[(i + 1) % height]) % 5

    def probe(self, count: int):
        """Seconds per kernel run, `count` times."""
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            self.kernel()
            out.append(time.perf_counter() - t0)
        return out

    @staticmethod
    def factor(samples) -> float:
        return statistics.median(samples) / NOMINAL_S

"""Machine speed from a fixed calibration kernel.

The benchmark machine is shared: for seconds at a time another tenant can
make every op about twice as slow, which moved wall-time metrics by 20-35%
between runs.  The time of a fixed pure-Python kernel (a product of two fixed
multivectors in the benchmark's own arithmetic, about 5 ms) tracks that
speed: op time / kernel time stayed within about 5% while op time doubled.
A kernel of 0.7 ms, timed best of 5, tracked it only to about 10%.
Op times are reported scaled by C_REF / (kernel time around the op), that is
as wall time at the speed where the kernel takes C_REF.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import refmath as rm

C_REF = 0.006  # seconds; the kernel's usual time on the 2-CPU machine the bounds were set on


class Speed:
    INTERVAL = 0.25  # seconds between samples taken by tick()
    WINDOW = 0.5  # samples this close to an op describe its speed

    def __init__(self):
        rng = random.Random(12345)
        self.a = {b: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for b in rng.sample(range(256), 30)}
        self.b = {b: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for b in rng.sample(range(256), 24)}
        self.samples = []  # (time, kernel seconds)
        self.spent = 0.0  # wall seconds spent sampling

    def sample(self):
        t0 = time.perf_counter()
        rm.mv_mul(self.a, self.b, 4)
        t1 = time.perf_counter()
        self.spent += t1 - t0
        self.samples.append((t1, t1 - t0))
        return t1 - t0

    def tick(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.INTERVAL:
            self.sample()

    def scale(self, t0, t1):
        """Factor that turns wall seconds spent in [t0, t1] into reference seconds."""
        near = [c for t, c in self.samples if t0 - self.WINDOW <= t <= t1 + self.WINDOW]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return C_REF / statistics.median(near)

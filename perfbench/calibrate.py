"""Speed of the box, measured with a fixed loop that never changes.

The shared box of the baseline runs in phases that slow every call for
minutes at a time, by up to 60 %, so a whole run can fall into one.  A
fixed pure-Python loop, timed between the batches of the same run, slows
with it: over 300 s of interleaved calls, the fastest repeat per 20 s
window of this loop and of the program's sweep and LLE calls moved by up
to 68 %, and their ratio by 7-10 % (README.md, Estimators).  The
end-to-end timings are scaled by ``REFERENCE_S / fastest loop`` so that a
run reads as if it had been made at the baseline's speed.  The loop
imports nothing from lorenzlab, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

STEPS = 6000
REPEATS = 2  # loops timed after each batch
# fastest repeat of loop() on the baseline box (README.md, Estimators)
REFERENCE_S = 0.0255


def loop() -> tuple:
    """Classic Lorenz by RK4 on tuples, in the program's own style."""
    a, r, b = 10.0, 28.0, 8.0 / 3.0

    def f(s):
        x, y, z = s
        return (a * (y - x), r * x - y - x * z, x * y - b * z)

    s, h = (1.0, 1.0, 1.0), 0.01
    for _ in range(STEPS):
        k1 = f(s)
        k2 = f(tuple(u + 0.5 * h * k for u, k in zip(s, k1)))
        k3 = f(tuple(u + 0.5 * h * k for u, k in zip(s, k2)))
        k4 = f(tuple(u + h * k for u, k in zip(s, k3)))
        s = tuple(u + h / 6.0 * (p + 2.0 * q + 2.0 * w + v)
                  for u, p, q, w, v in zip(s, k1, k2, k3, k4))
    return s


class Calibration:
    """Times ``loop`` REPEATS times after each of the first ``k`` batches."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.times: list[float] = []

    def after_batch(self, n: int) -> None:
        if n > self.k:
            return
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            loop()
            self.times.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Fastest loop of the run over the baseline's: > 1 on a slow box."""
        return min(self.times) / REFERENCE_S

"""A fixed reference computation, timed next to every measured op.

On a shared host the same op can take twice as long from one minute to
the next, because other tenants' work slows the core the process runs on
(steal time reads zero; the slowdown shows in CPU time as well). Every
timing of the benchmark is therefore taken together with the time of
``kernel()`` on the same core, just before and just after, and reported
rescaled to the speed at which ``kernel()`` takes ``REF_S``:

    reported = measured * REF_S / kernel time around the measurement

The kernel is pure-Python rational arithmetic, the same kind of work as
albertkit's, and never calls albertkit, so a change to the program moves
the reported times exactly as it moves the measured ones. The raw
measured times are reported alongside (see run.py).
"""

from __future__ import annotations

import random
import time

import gen

# sample() time, in seconds, on the machine the baseline was recorded on
# (CPython 3.11.7, 2 vCPU Xeon) in its fast state: about the 10th
# percentile of 2000 samples. A unit, not a target: only ratios to it count.
REF_S = 0.00095

_rng = random.Random("albertkit-bench/calibration")
_INPUTS = [gen.elem_coords(_rng, "d", "small") for _ in range(4)] + [
    gen.elem_coords(_rng, "d", "large", (20, 8))
]


def kernel() -> None:
    """The cubic form of five fixed elements of J, with Fractions."""
    for c in _INPUTS:
        gen.det27(c)


def sample() -> float:
    """The mean time of three kernel runs, in seconds."""
    t = time.perf_counter()
    for _ in range(3):
        kernel()
    return (time.perf_counter() - t) / 3

"""Machine speed, measured with a fixed reference workload.

On a shared host the same code runs at speeds up to about 1.5x apart, in
spells that last from milliseconds to minutes, so a whole run can land in a
slow or a fast spell.  The package's time goes to interpreted Python and to
numpy calls on small arrays.  A fixed reference that does the same two kinds
of work slows down and speeds up with it.  A run interleaves short reference
samples with its operations, and divides its times by the slowdown those
samples show: the run's mean sample time over ``REF_NOMINAL_S``.  The
reported times are therefore those of a nominal machine on which one sample
takes ``REF_NOMINAL_S``; the raw times and the slowdown are reported too.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Roughly the sample time on a 2-vCPU Intel Xeon KVM guest, so that the
# rescaled times read close to that machine's raw ones.
REF_NOMINAL_S = 1.0e-3
# A sample is taken before an operation once this long has passed since the
# previous one: about 1 ms of reference per 25 ms of operations.
REF_GAP_S = 0.025

_PY_ITERS = 5000
_NP_ITERS = 150
_VEC = np.arange(32.0)


def reference_sample() -> float:
    """Run the reference workload once; returns its duration in seconds."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    for i in range(_PY_ITERS):
        acc += i * i % 7
    total = 0.0
    for _ in range(_NP_ITERS):
        total += float((_VEC * 1.0001).sum())
    elapsed = clock() - t0
    if acc < 0 or total < 0.0:  # keeps both loops' results in use
        raise AssertionError("reference workload gave a negative sum")
    return elapsed


class SpeedMeter:
    """Reference samples taken during one phase of a run."""

    def __init__(self) -> None:
        self.samples = array("d")
        # Wall time spent sampling, for callers that time a span with
        # samples inside it and must take them out.
        self.spent = 0.0
        self._last = -float("inf")

    def sample(self, count: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(count):
            self.samples.append(reference_sample())
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        """Take a sample if ``REF_GAP_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= REF_GAP_S:
            self.sample()

    def slowdown(self) -> float:
        """Mean sample time over the nominal one; above 1 on a slower machine."""
        if not self.samples:
            raise RuntimeError("no reference sample was taken")
        return float(np.mean(np.frombuffer(self.samples, dtype=np.float64))) / REF_NOMINAL_S

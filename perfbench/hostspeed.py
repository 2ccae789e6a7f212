"""Host speed probe used to scale wall times to a fixed host speed.

On a shared virtual machine the host's speed drifts by up to ~1.8x over
minutes, uniformly for all code: a fixed reference loop slows down by the
same factor as empkit's estimator, so the ratio of the two holds within a
few percent while each alone does not.  The benchmark therefore times the
reference loop next to every operation and reports times scaled to a host
on which the loop takes ``REF_NOMINAL_MS``.  The loop uses only 4-element
arrays, so it allocates nothing that could move glibc's mmap threshold and
with it the oracle's heap state.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_NOMINAL_MS = 1.5


def _reference_loop():
    a = np.arange(16.0).reshape(4, 4) / 16.0
    v = np.ones(4)
    acc = 0.0
    for i in range(400):
        v = np.tanh(a @ v + 0.1)
        acc += math.sin(i * 0.01) * float(v.sum())
    return acc


def probe_ms(repeats=5):
    """Median wall time of the reference loop, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def scaled(ms, ref_ms):
    """``ms`` as it would read on a host where the loop takes REF_NOMINAL_MS."""
    return ms * REF_NOMINAL_MS / ref_ms

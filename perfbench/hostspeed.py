"""Host-speed reference loop: scales the benchmark's times to a steady host.

The benchmark runs on a shared host whose speed drifts by up to 2x over
seconds to minutes with other tenants' load, and CPU time drifts with it:
the work itself runs slower, the process is not descheduled.  A fixed loop
of the same kind of work as the workloads (Python calls on tiny numpy
arrays, then small dense linear algebra) is timed in a block before and
after every timed span.  A metric sums its spans, divides the sum by the
summed loop time of the blocks around each span and multiplies by
``REF_LOOP_S``, the loop's time on the reference machine: the result reads
as seconds at that machine's steady speed.  The loop does not touch reupqnn, so a change to the package
moves the span's time and not the scale.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one loop() on the reference machine (2-vCPU KVM guest on a
# 2.1 GHz Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread).
REF_LOOP_S = 0.006

_TINY = np.ones(2)
_RNG = np.random.default_rng(12345)
_M = _RNG.normal(size=(48, 48)) + 1j * _RNG.normal(size=(48, 48))
_H = _M + _M.conj().T


def loop() -> float:
    s = 0.0
    for i in range(2000):
        s += float(_TINY @ _TINY) + 0.5 * i
    for _ in range(10):
        s += float(np.linalg.eigvalsh(_H)[0]) + float((_M @ _M).real[0, 0])
    return s


class Block:
    """Wall and CPU seconds per loop() over one block of loops."""

    def __init__(self, loops: int):
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(loops):
            loop()
        self.wall = (time.perf_counter() - t0) / loops
        self.cpu = (time.process_time() - c0) / loops


def scaled(seconds: float, loop_seconds: float) -> float:
    """Seconds at the reference speed, from the loop time measured around them."""
    return seconds * REF_LOOP_S / loop_seconds

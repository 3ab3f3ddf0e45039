"""Host speed, sampled with a fixed kernel during every timed op.

On a shared host the same pure-Python work runs fast or up to half again
slower, switching within a second, and whole minutes can run slow while
other tenants are busy.  No statistic over one run's latencies removes a
slow minute.  So the harness samples the host's speed with a kernel of
its own (a GF(2) product on sets of exponent tuples, the shape of
moorev1's hot loops) before and after each op and, from a SIGALRM
handler every PROBE_EVERY_S, inside it.  Each stretch of the op between
two samples is reported at reference speed:

    stretch * REFERENCE_S / (mean of the kernel samples at its two ends)

The samples' own time is taken out of the op's.  A change to moorev1
cannot move the kernel: it is the benchmark's code, on data of its own,
run with the cyclic garbage collector off.
"""
from __future__ import annotations

import gc
import signal
from time import perf_counter
from typing import Callable, List, Tuple

# One kernel run on a lightly loaded 2-vCPU KVM guest (Xeon, Python
# 3.11.7).  Both commits of a comparison are scaled by it alike.
REFERENCE_S = 0.0013
PROBE_EVERY_S = 0.02

_A = tuple((i, j) for i in range(12) for j in range(12) if (7 * i + 3 * j) % 5)
_B = tuple((i, j) for i in range(10) for j in range(10) if (i + 2 * j) % 3)


def kernel() -> int:
    """The GF(2) product of two fixed bivariate polynomials."""
    out = set()
    for a0, a1 in _A:
        for b0, b1 in _B:
            m = (a0 + b0, a1 + b1)
            if m in out:
                out.remove(m)
            else:
                out.add(m)
    return len(out)


def kernel_seconds(runs: int = 1) -> float:
    """Seconds per kernel run, over `runs` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(runs):
            kernel()
        return (perf_counter() - t0) / runs
    finally:
        if enabled:
            gc.enable()


def at_reference(stretches: List[float], samples: List[float]) -> float:
    """Seconds at reference speed of stretches[i], which lies between
    kernel samples[i] and samples[i + 1]."""
    return sum(s * 2 * REFERENCE_S / (a + b) for s, a, b in zip(stretches, samples, samples[1:]))


class SpeedProbe:
    """Times ops and samples the host's speed around and inside them."""

    def __init__(self):
        self._marks: List[Tuple[float, float, float]] = []  # (start, end, kernel s)
        self._sampling = False

    def _sample(self, *_) -> None:
        # a signal that arrives while a sample runs must not nest another
        if self._sampling:
            return
        self._sampling = True
        try:
            t0 = perf_counter()
            k = kernel_seconds()
            self._marks.append((t0, perf_counter(), k))
        finally:
            self._sampling = False

    def time(self, call: Callable[[], object]):
        """call() and (its result, seconds as measured, seconds at
        reference speed); the kernel samples inside it are not counted."""
        self._marks = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # a signal caught after the timer stopped ran outside the op
        inside = [m for m in self._marks[1:] if m[0] < t1]
        self._marks[1:] = inside
        self._sample()
        edges = [t0] + [x for start, end, _ in inside for x in (start, end)] + [t1]
        stretches = [edges[i + 1] - edges[i] for i in range(0, len(edges), 2)]
        samples = [k for _, _, k in self._marks]
        return result, sum(stretches), at_reference(stretches, samples)

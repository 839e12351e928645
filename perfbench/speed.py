"""Machine-speed probe: measured times expressed at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed wanders by up to
2x, over seconds and over minutes, as load elsewhere on the host comes and
goes. Every workload slows at the same moment, and process CPU time slows
with wall time, so no statistic taken over one run removes it. The probe
therefore times a fixed piece of reference work every ``PERIOD_S`` seconds,
from a timer signal in the worker's own thread, while the program runs. A
program time measured between ``start`` and ``end`` is reported as

    measured * REFERENCE_S[kind] / median(reference samples within WINDOW_S of it)

in seconds at the reference speed. A change to the program does not move
the reference samples; a change of the host's speed moves both. A slow host
hurts interpreted code more than BLAS or memory-bound array code, so each
workload names the kind of reference work that is made like itself:
``interpreted`` (rational arithmetic, float loops, small LAPACK calls) or
``mixed`` (a third each of interpreted code, BLAS and array streaming).

Costs: the ticks take 3 to 5% of the worker's time (they are taken out of
every timed interval) and their arrays add 6 to 10 MB to its peak memory.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# a fixed constant per kind of reference work: about its time on a 2-vCPU
# "Intel(R) Xeon(R) Processor" virtual machine (Python 3.11.7, numpy 2.4.6,
# one BLAS thread) while its host was quiet
REFERENCE_S = {"interpreted": 0.0060, "mixed": 0.0100}
PERIOD_S = 0.25
WINDOW_S = 1.0

_SMALL = np.random.default_rng(0).standard_normal((6, 6))
_LARGE = np.random.default_rng(1).standard_normal((300, 300))
_STREAM = np.random.default_rng(2).standard_normal(1 << 19)  # 4 MiB
_STREAM_OUT = np.empty_like(_STREAM)


def _interpreted(rounds: int) -> None:
    for _ in range(rounds):
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(1, i)
        x = 0.0
        for i in range(6000):
            x += (i % 7) * 0.5
    for _ in range(20):
        np.linalg.qr(_SMALL)


def _interpreted_work() -> None:
    """Exact rational arithmetic, float loops and small LAPACK calls."""
    _interpreted(4)


def _mixed_work() -> None:
    """About a third each of interpreted code, BLAS and array streaming."""
    _interpreted(2)
    for _ in range(5):
        _LARGE @ _LARGE
    for _ in range(4):
        np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)
        np.add(_STREAM_OUT, _STREAM, out=_STREAM_OUT)


WORK = {"interpreted": _interpreted_work, "mixed": _mixed_work}


def sample(kind: str) -> float:
    """Seconds taken by one run of the reference work of ``kind``."""
    start = time.perf_counter()
    WORK[kind]()
    return time.perf_counter() - start


class Probe:
    """Reference samples taken from a SIGALRM handler in the main thread.

    The handler runs between bytecodes of whatever the program is doing, so
    ``spent`` (seconds inside the handler) must be taken out of any interval
    timed around a program call.
    """

    def __init__(self, kind: str) -> None:
        self.work = WORK[kind]
        self.reference_s = REFERENCE_S[kind]
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.work()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """The reference time over the median reference sample near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:  # no tick near the interval: take the closest one
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = self.samples[i:i + 1]
        return self.reference_s / statistics.median(near)

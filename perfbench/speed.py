"""A reference clock that takes most of the host's background load out of timings.

On a shared host the CPU runs other tenants' work too, and how much it does
so drifts over minutes: on a shared 2-vCPU virtual machine (Linux, Python
3.11) the same op list took anywhere from 1x to 3x its idle time from one run to
the next. A median or a best-of over one run cannot remove that, because
the whole run is slowed.

While a ``Speedometer`` is running, a SIGALRM every ``interval`` seconds
times one run of a fixed reference kernel (small numpy array ops and a pure
Python loop, like the planner's own mix). A timing divided by the mean
kernel time measured over the same interval moves far less with the host's
load (under the heaviest load the kernel slows somewhat less than the
planner), and multiplying by ``REFERENCE_NS`` turns it back into seconds at
the reference speed. The kernel's own time is measured and
subtracted from the op it interrupted.

Load on that host moved within a second, so each op is rescaled by the
kernel runs around it (``WINDOW``, about half a second), not by a mean over
its pass: over repeated runs of one seed that narrowed the spread of
``wall_s``, ``op_p50_ms`` and ``op_p90_ms`` by about a third.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

# Mean kernel time on an idle vCPU of the host above (Python 3.11, numpy 2.4).
# Only a scale: results stay comparable between commits on any one machine.
REFERENCE_NS = 350_000

# Kernel runs an op's reference time is averaged over, at least.
WINDOW = 10

_ARRAY = np.linspace(0.0, 1.0, 100).reshape(25, 4)


def reference_kernel() -> float:
    total = 0.0
    for _ in range(40):
        rows = np.cumsum(_ARRAY, axis=0)
        total += float((rows * rows).sum())
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return total + acc


class Speedometer:
    """Samples the reference kernel's time on a timer while in a ``with`` block."""

    def __init__(self, interval: float = 0.05, warmup: int = 5):
        self.interval = interval
        self.samples: List[int] = []
        for _ in range(warmup):
            self._tick()
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter_ns()
        reference_kernel()
        self.samples.append(time.perf_counter_ns() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> Tuple[int, int]:
        """Number of kernel runs since ``mark`` and the nanoseconds they took."""
        recent = self.samples[mark:]
        return len(recent), sum(recent)

    def window_mean_ns(self, start: int, end: int, size: int = WINDOW) -> float:
        """Mean kernel time over the runs ``start:end``, widened evenly on
        both sides to ``size`` runs, within those taken, if fewer fell inside."""
        if end - start < size:
            start = max(0, min((start + end - size) // 2, len(self.samples) - size))
            end = min(len(self.samples), start + size)
        window = self.samples[start:end]
        return sum(window) / len(window)

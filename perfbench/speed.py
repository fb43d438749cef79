"""Interpreter speed of the machine, sampled while the benchmark measures.

The CPU speed of a shared virtual machine drifts: on a 2-vCPU VM running
Python 3.11 it moved by a factor of up to 2 within a minute, the same for
tight loops, allocation, Fraction arithmetic and dyckshift's own reduction
and sampling code, and the drift does not show as steal time.  So the
time of a workload pass is rescaled to a fixed reference speed: the raw
seconds times the machine's mean speed over the pass, relative to a machine
on which :func:`reference_loop` takes ``REFERENCE_S``.  A change to
dyckshift does not touch the loop, so only the machine moves the reference.
"""

from __future__ import annotations

import signal
import time
from array import array

# Rescaled times are seconds on a machine where reference_loop() takes this long.
REFERENCE_S = 100e-6
SAMPLE_EVERY_S = 0.02


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, a list stack, dict stores, tuples."""
    stack: list[int] = []
    seen: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(400):
        c = (i * 7) % 5 - 2
        if c > 0:
            stack.append(c)
        elif stack:
            stack.pop()
        seen[i & 31] = (c, acc)
        acc += len(stack)
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def relative_speed(durations) -> float:
    """Mean speed over samples taken at even intervals, relative to the reference machine.

    Speed is inversely proportional to a sample's duration, and the mean of
    the speeds (not of the durations) is what converts wall time into work.
    """
    durations = list(durations)
    return sum(REFERENCE_S / d for d in durations) / len(durations)


class SpeedProbe:
    """Times reference_loop() every SAMPLE_EVERY_S of wall time, from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so the samples
    cover the whole measured interval; they cost about 1 % of it.  Samples go
    to an array, not to float objects, so that they do not pin the memory
    the measured code frees (which would raise its peak RSS).
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_reference())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def speed(self) -> float:
        """Relative speed over the interval (measured afresh if it was too short to sample)."""
        return relative_speed(self.samples or [time_reference() for _ in range(15)])

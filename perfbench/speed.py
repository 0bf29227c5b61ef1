"""Host-speed probe that turns wall seconds into steady seconds.

The speed of a shared virtual machine drifts: on a 2-vCPU one, the
median time of one census moved by 40% within three minutes, and CPU
time followed wall time, so the process was running, only slower.  A timer therefore interrupts each timed
operation every PERIOD_S and runs a fixed sample of pure-Python work
(tuple, list and str churn, like the audit's and the CLI's object
work).  The samples run in the same thread at the same moments as the
operation, so their median duration measures the speed the operation got.

    with SpeedProbe() as probe:
        t0 = perf_counter(); work(); wall = perf_counter() - t0
    raw = probe.net(wall)          # without the samples' own time
    seconds = raw * probe.scale    # REFERENCE_S over the median sample

The result is the operation's time at the host speed at which one
sample takes REFERENCE_S.  Over two ten-run sets per workload
(perfbench/README.md, Steadiness) the scaled result times spread by at
most 9.3% and moved by at most 2.1% between the sets; the raw wall
times of the same runs spread by up to 27% and moved by up to 15%.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.025
REFERENCE_S = 0.0007
_TAIL_SAMPLES = 4  # taken after the operation, so short ones get samples too


_SLOTS: list = [None] * 97


def _sample() -> float:
    # The collector is held off, so a collection of the operation's heap
    # cannot land inside a sample; every object made here dies in it.
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    slots = _SLOTS
    for i in range(2000):
        slots[i % 97] = (i, str(i), [i])
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(_sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.in_op = sum(self.samples)
        self.samples.extend(_sample() for _ in range(_TAIL_SAMPLES))
        return False

    @property
    def scale(self) -> float:
        # The median, not the mean: a sample can lose the interpreter lock
        # to census(threads=2)'s workers for a whole switch interval (5 ms,
        # seven samples long), or catch an interrupt.
        return REFERENCE_S / statistics.median(self.samples)

    def net(self, wall: float) -> float:
        """Wall seconds of the operation without the samples taken inside it."""
        return wall - self.in_op

"""Reference seconds: wall time corrected for how fast the machine ran.

The benchmark runs on a shared machine whose speed swings by up to 2x,
changing within a second.  A :class:`SpeedProbe` times a fixed reference
kernel every ``PERIOD_S`` of wall time, from a ``SIGALRM`` handler that runs
in the middle of the program's own work, and on demand between rounds.
:meth:`SpeedProbe.split` turns the wall time of an interval into
the time it would have taken on a machine where the kernel takes
``REF_KERNEL_S``: the interval's wall time, less the probe's own time in it,
times ``REF_KERNEL_S`` over the mean kernel time of the samples taken in it
and of the one taken on either side of it.

The kernel lives here, not in the program, so a change to the program never
changes the yardstick it is measured with.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import signal
import time
from typing import Dict, List, Tuple

#: the reference kernel's wall time on the nominal machine every reference
#: second is scaled to (about its time on an idle 2-vCPU Xeon VM).
REF_KERNEL_S = 0.001
#: wall seconds between two samples taken from the signal handler.
PERIOD_S = 0.025

_MODULUS = (1 << 256) - 189


def reference_kernel() -> int:
    """About a millisecond of the kind of interpreter work the program does
    (dict updates, integer arithmetic, 256-bit modular powers, SHA-256).
    It allocates no container the garbage collector tracks."""
    table: Dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    digest = hashlib.sha256()
    for i in range(6000):
        key = i & 1023
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
    for _ in range(10):
        x = pow(x, 0x10001 + (x & 0xFF), _MODULUS)
        digest.update(x.to_bytes(32, "big"))
    return x ^ int.from_bytes(digest.digest(), "big") ^ sum(table.values())


class SpeedProbe:
    """Kernel samples ``(start, end)`` in ``time.perf_counter`` seconds.

    Between :meth:`start` and :meth:`stop`, ``SIGALRM`` belongs to the
    probe.  :meth:`sample` also takes a sample on demand, so that every
    interval has one on either side."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._previous_handler = None

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time the kernel once, with the garbage collector off so that the
        sample never pays for a collection of the program's heap."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((start, end))
        self._starts.append(start)

    def split(self, start: float, end: float) -> Tuple[float, float]:
        """``(wall, reference)`` seconds of the program's work in
        ``[start, end]``: the wall time less the probe's own samples in it,
        and that time in reference seconds."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._starts, end)
        wall = end - start - sum(e - s for s, e in self.samples[first:last])
        window = self.samples[max(0, first - 1):last + 1]
        kernel = sum(e - s for s, e in window) / len(window)
        return wall, wall * REF_KERNEL_S / kernel

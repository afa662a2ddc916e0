"""Host-speed calibration: time measured work at a reference speed.

On a host shared with other work the speed of a core can swing by up
to a factor of two within seconds, and raw CPU and wall times of
identical rounds then spread by a fifth or more.  So every
measured stretch of work is kept short (``CHUNK_S`` of host time) and is
bracketed by a fixed calibration slice: a small pure-Python loop that
touches nothing from ``repro``.  Each chunk's times are scaled by
``REFERENCE_S`` over the mean duration of the slices around it, which
reads as "the time this chunk would have taken on a host where the slice
takes ``REFERENCE_S``".  Because the slice never runs ``repro`` code, a
change to the program moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import time
from typing import Callable

#: Duration of one calibration slice on the reference host, in seconds.
REFERENCE_S = 0.001
#: Host seconds of work measured between two calibration slices.
CHUNK_S = 0.05
#: Loop passes of one calibration slice.
_PASSES = 4000


def slice_seconds() -> float:
    """Time one calibration slice: dict updates, float arithmetic, calls."""
    table: dict = {}
    total = 0.0
    started = time.perf_counter()
    for i in range(_PASSES):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += len(table) * 0.25
    return time.perf_counter() - started


class ScaledClock:
    """Accumulates raw and speed-scaled CPU and wall time of chunks."""

    def __init__(self):
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.raw_cpu_s = 0.0
        self.raw_wall_s = 0.0
        self.chunks = 0
        self._last_slice = slice_seconds()

    def measure(self, work: Callable[[], object]) -> None:
        """Run ``work`` and add its times, scaled by the slices around it."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        work()
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        following = slice_seconds()
        scale = REFERENCE_S / ((self._last_slice + following) / 2.0)
        self._last_slice = following
        self.cpu_s += cpu * scale
        self.wall_s += wall * scale
        self.raw_cpu_s += cpu
        self.raw_wall_s += wall
        self.chunks += 1

    @property
    def scale(self) -> float:
        """Mean scale applied so far (scaled over raw CPU time)."""
        return self.cpu_s / self.raw_cpu_s if self.raw_cpu_s else 1.0

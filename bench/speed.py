"""Fixed reference computations that measure how fast the host runs right now.

On the shared host where the benchmark was defined, the same campaign takes
anywhere from about 55 ms to 95 ms. The speed changes in phases that last
from seconds to minutes, and process CPU time changes with it, so neither
longer runs nor CPU time make the figures steady. The benchmark therefore
times a reference computation next to every operation and scales the
operation's host time by it, which cancels most of the host's phases. The
references live in the benchmark, not in arbsim, so no change to arbsim
can change them.

The phases do not slow all code alike, so each workload is scaled by the
reference that resembles its dominant cost:

- ``objects`` builds frozen slotted dataclass instances and updates a small
  dict, like the arbiter, stimulus and export work of ``corpus`` and
  ``fuzz-a4``.
- ``copies`` copies a tuple of 8,192 distinct objects, like the memory copy
  that dominates each edge of ``wide-a13``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class _Register:
    width: int
    value: int


def _objects() -> float:
    t0 = time.perf_counter()
    latest: dict[int, _Register] = {}
    for i in range(2000):
        latest[i & 15] = _Register(8, i & 255)
    memory = (0,) * 2048
    for i in range(56):
        cells = list(memory)
        cells[i] = latest[i & 15]
        memory = tuple(cells)
    return time.perf_counter() - t0


def _copies() -> float:
    memory = tuple(_Register(8, i & 255) for i in range(8192))
    t0 = time.perf_counter()
    for i in range(40):
        cells = list(memory)
        cells[i] = memory[0]
        memory = tuple(cells)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    name: str
    work: Callable[[], float]
    # The reference's time on the host where the benchmark was defined, in a
    # fast phase, so that scaled times read as host time there.
    nominal_s: float

    def seconds(self) -> float:
        """Host seconds the reference takes now, with the collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self.work()
        finally:
            if enabled:
                gc.enable()

    def scaled(self, times: list[float], refs: list[float]) -> list[float]:
        """Scale each time by the host's speed around it.

        ``refs[i]`` was timed just before ``times[i]`` and ``refs[i + 1]`` just
        after. The speed is the median of the two reference times before and
        the two after, so one reference hit by a hiccup does not skew it.
        """
        return [
            t * self.nominal_s / statistics.median(refs[max(0, i - 1): i + 3])
            for i, t in enumerate(times)
        ]


OBJECTS = Reference("objects", _objects, 0.002)
COPIES = Reference("copies", _copies, 0.002)

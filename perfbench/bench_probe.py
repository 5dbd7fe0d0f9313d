"""Interleaved host-speed probe behind ``wall_norm``.

The benchmark runs on shared 2-core hosts whose speed drifts by up to
2x in phases of seconds to tens of seconds.  A fixed reference kernel
timed just before and just after each unit of work tracks that drift:
dividing a unit's wall time by the mean of its two neighbouring probe
times gives a host-normalised cost in *probe units*.

The kernel mixes the two kinds of work the workloads do: an interpreted
loop over dicts, lists and floats (the emulator's slot loop) and small
NumPy table gathers (the GF(2^8) codec).  Its inputs and output are
fixed, so every call does identical work.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

_TABLE = (np.arange(256, dtype=np.uint16) * 7 % 256).astype(np.uint8)
_MATRIX = (np.arange(64 * 64, dtype=np.uint32) % 251).astype(np.uint8).reshape(64, 64)


def reference_kernel() -> float:
    """One fixed unit of mixed interpreted and NumPy work (5-10 ms on a 2-core x86 VM)."""
    counts: dict = {}
    window: List[float] = []
    acc = 0.0
    for i in range(12000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        window.append(i * 0.5)
        if len(window) > 64:
            window.pop(0)
        acc += window[-1] * 1.0001
    gathered = 0
    for i in range(300):
        gathered += int(_TABLE.take(_MATRIX ^ (i & 255))[0, 0])
    return acc + gathered + len(counts)


class HostProbe:
    """Times the reference kernel between units of work.

    ``sample()`` runs the kernel once and returns its wall time; the
    caller keeps the previous sample so each probe serves as the "after"
    of one unit and the "before" of the next.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time one kernel call (seconds) and record it."""
        started = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def mean_ms(self) -> float:
        """Mean probe time of the run, in milliseconds."""
        if not self.samples:
            return 0.0
        return 1e3 * sum(self.samples) / len(self.samples)

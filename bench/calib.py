"""Machine-speed calibration for the benchmark's times.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes.  Each process that takes a
measurement also times a fixed kernel (pure Python dict/integer work over
a few MiB, NumPy streaming over 2 MiB and faulting in 2 MiB of fresh
pages) every quarter second of
measured time, and every time it reports is scaled by
``REFERENCE_S / median(kernel times)``: a time in seconds at the machine
speed at which the kernel takes ``REFERENCE_S``.  The kernel does not
touch ergolab, so a change to the program does not move it.  run.py
prints the raw (unscaled) times next to the scaled ones.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU machine the baseline was recorded on
REFERENCE_S = 0.005
EVERY_S = 0.25  # measured time between two samples


class Calibration:
    """Kernel samples taken through one process's measurement.

    Create it after the timed set-up: building the kernel's working set
    takes a few milliseconds.  The kernel's arrays are preallocated and
    its page faults come from a mapping of its own, and each sample runs
    it twice and times the second run, so that what the program left in
    the caches and the allocator does not change it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0
        self._keys = [(i * 2654435761) % 1_000_003 for i in range(40_000)]
        self._table = dict.fromkeys(self._keys, 1)
        self._a = np.arange(1 << 18, dtype=np.int64)
        self._b = np.empty_like(self._a)

    def kernel(self) -> float:
        """Seconds taken by one run of the fixed kernel."""
        t0 = time.perf_counter()
        total = 0
        for k in self._keys[::4]:
            total += self._table[k] + (k & 7)
        a, b = self._a, self._b
        for _ in range(4):
            np.bitwise_xor(a[7:], a[:-7], out=b[7:])
            np.add(b, a, out=b)
        fresh = mmap.mmap(-1, 1 << 21)  # 512 page faults, whatever the allocator holds
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::4096] = 1
        del pages
        fresh.close()
        return time.perf_counter() - t0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.kernel()
            self.samples.append(self.kernel())

    def after(self, measured_s: float) -> None:
        """Take a sample once EVERY_S of measured time has passed."""
        self._since += measured_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample()

    def factor(self) -> float:
        """Multiplier that turns this process's times into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

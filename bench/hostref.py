"""A fixed reference kernel that tells how fast the host is right now.

The sizing box is a shared 2-core VM: with nothing else running, the
same seed gives round times that wander by 10-30% in phases that last
from under a second to minutes, on every workload at once (same-seed
repeats of ``serve-hot`` gave medians from 0.20 to 0.32 s per round).
No estimator taken inside one run removes a phase that covers the whole
run, so the harness measures the host next to the work: this kernel — a
``ResultCache``-shaped ordered-dict loop plus a numpy gather and sort,
none of it code of the repository — runs after every round and epoch
and between the stages of a set-up, outside every timed region.

The seconds of each timed operation (a round, an epoch, a set-up stage)
are then scaled by ``NOMINAL_S / (median kernel time next to it)``, the
kernel runs right before and right after it: the figure is
*host-normalised*, what the operation would have read on a host where
the kernel takes ``NOMINAL_S``. The wall-clock twins are reported next
to the normalised figures (``run.*_wall``, ``run.host_ref_ms``), and
every per-layer time is wall-clock.
"""

from __future__ import annotations

import statistics
import time
from collections import OrderedDict

import numpy as np

NOMINAL_S = 0.008
"""What one kernel run takes on the sizing box in a quiet phase."""


class HostRef:
    """The reference kernel and every sample it has taken."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(1_000_000)
        self._index = rng.integers(0, self._table.size, 200_000)
        self._entries = OrderedDict((float(i), (0, (i, True, True, False))) for i in range(50_000))
        self._keys = [float(k) for k in rng.integers(0, len(self._entries), 6_000)]
        self._gathered = np.empty(self._index.size)
        self._sorted = np.empty_like(self._index)
        self.samples: list[float] = []

    def sample(self, runs: int) -> None:
        """Run the kernel ``runs`` times and keep each wall time, after
        one run that is thrown away: the work just done has emptied the
        CPU caches of the kernel's data, and a run that refills them
        reads 10-40% long whatever the host is doing. The kernel writes
        into buffers it owns, so it takes no page faults (see
        ``harness.Stopwatch`` for why that matters here)."""
        entries = self._entries
        for run in range(runs + 1):
            t0 = time.perf_counter()
            for key in self._keys:
                if entries.get(key) is not None:
                    entries.move_to_end(key)
            for _ in range(2):
                np.take(self._table, self._index, out=self._gathered).sum()
                self._sorted[:] = self._index
                self._sorted.sort()
            if run:
                self.samples.append(time.perf_counter() - t0)

    def scale_around(self, runs: int) -> float:
        """Call right after an operation: runs the kernel ``runs`` more
        times and returns the factor that host-normalises the
        operation's seconds, from those runs and as many before it."""
        before = self.samples[-runs:]
        self.sample(runs)
        return self.scale(before + self.samples[-runs:])

    @staticmethod
    def scale(samples: list[float]) -> float:
        """The factor that host-normalises seconds measured while the
        kernel read ``samples``."""
        return NOMINAL_S / statistics.median(samples)

"""Partition estimation as a sans-I/O machine plus its exact kernels.

:class:`PartitionEstimator` is the recursive-median descent of paper §2
with the *sampling* left to the driver: the machine announces which arc
it needs samples from, the driver obtains positions however its world
allows (i.i.d. draws against a membership directory, a restricted walk
over real messages), and feeds them back; :class:`JoinProtocol
<repro.protocol.join.JoinProtocol>` drives it for a live peer. The
construction engine runs the same level loop for every peer at once.

:func:`select_border` and :func:`cw_arc_slice` are the scalar exactness
kernels shared with the batched engine's sequential reference
(:mod:`repro.engine.construct`) and the :mod:`repro.net` lockstep
members: exact ``uint64`` rank medians and ``searchsorted`` arc
counting, so a peer computing over a directory snapshot agrees with the
engine computing over the ring bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import SamplingError
from ..ring.identifiers import normalize
from ..ring.keyspace import KEY_MASK
from ..sampling.median import cw_sample_median
from .decisions import border_is_terminal

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a core cycle)
    from ..core.partitions import PartitionTable

__all__ = ["PartitionEstimator", "cw_arc_slice", "select_border"]


def cw_arc_slice(sorted_positions: np.ndarray, start: float, end: float) -> tuple[int, int, int]:
    """Index window of clockwise arc ``(start, end]`` in a sorted array.

    Returns ``(lo, hi, count)`` such that rows ``(lo + j) % m`` for
    ``j < count`` are exactly the members of the arc — the same
    ``searchsorted`` arithmetic the batched engine's kernels use, so a
    peer counting over its directory and the engine counting over the
    ring agree exactly. ``start == end`` reads as the full circle (the
    degenerate whole-population arc callers guard separately).
    """
    m = int(sorted_positions.size)
    lo = int(np.searchsorted(sorted_positions, start, side="right"))
    hi = int(np.searchsorted(sorted_positions, end, side="right"))
    if start < end:
        count = hi - lo
    elif start == end:
        count = m
    else:
        count = m - lo + hi
    return lo, hi, count


def select_border(
    anchor_key: int,
    origin: float,
    previous_end: float,
    sample_keys: list[int],
    sample_positions: list[float],
) -> tuple[float, bool]:
    """Clockwise sample median of one level, exact-rank, plus the clamp.

    Samples are ranked by exact wrapping ``uint64`` distance from the
    anchor key (stable ties by draw index); the returned border is the
    float reconstruction ``normalize(origin + cw_distance)`` of the
    selected sample — the historical output format — and the flag says
    whether :func:`~repro.protocol.decisions.border_is_terminal` rejects
    it (ending the descent). This is the per-row body of the engine's
    ``_select_borders_reference``, shared verbatim with the net
    runtime's lockstep estimation.
    """
    n = len(sample_keys)
    ranks = [(int(k) - anchor_key) & KEY_MASK for k in sample_keys]
    order = sorted(range(n), key=lambda j: (ranks[j], j))
    selected = order[(n - 1) // 2]
    float_dist = (float(sample_positions[selected]) - origin) % 1.0
    border = normalize(origin + float_dist)
    return border, border_is_terminal(border, origin, previous_end)


class PartitionEstimator:
    """Sans-I/O recursive-median partition estimation for one peer.

    Drive it by answering its arc requests::

        est = PartitionEstimator(origin, far_end, k)
        while (arc := est.pending_arc()) is not None:
            est.add_samples(<positions drawn from clockwise arc>)
        table = est.table()

    Per level the machine requests samples of the remaining arc
    ``(origin, m_{i-1}]``, takes the clockwise sample median as the
    border ``m_i``, and finishes early when a level yields no samples or
    the border clamp fires — the level loop the construction engine's
    ``_sampled_levels`` runs for every peer in lock-step. The machine
    never samples: the driver owns whatever randomness or messaging the
    samples cost.
    """

    __slots__ = ("origin", "far_end", "_previous_end", "_medians", "_levels_left")

    def __init__(self, origin: float, far_end: float, k: int) -> None:
        self.origin = float(origin)
        self.far_end = float(far_end)
        self._previous_end = self.far_end
        self._medians: list[float] = []
        # A far end equal to the origin means the peer is the sole live
        # member in scope: single-partition table, nothing to estimate.
        self._levels_left = 0 if self.far_end == self.origin else max(0, int(k) - 1)

    def pending_arc(self) -> tuple[float, float] | None:
        """The clockwise arc ``(start, end]`` to sample next, or ``None``."""
        if self._levels_left <= 0:
            return None
        return (self.origin, self._previous_end)

    def add_samples(self, positions: np.ndarray) -> None:
        """Feed the positions sampled from the pending arc (may be empty)."""
        if self._levels_left <= 0:
            raise SamplingError("estimator is finished; no arc is pending")
        arr = np.asarray(positions, dtype=float)
        if arr.size == 0:
            self._levels_left = 0
            return
        border = cw_sample_median(self.origin, arr)
        # Clamp: stop at a border that is not strictly inside the arc
        # (a border a denormal step from the arc end used to round into
        # exactly-at-the-end under the subtractive metric).
        if border_is_terminal(border, self.origin, self._previous_end):
            self._levels_left = 0
            return
        self._medians.append(border)
        self._previous_end = border
        self._levels_left -= 1

    @property
    def medians(self) -> tuple[float, ...]:
        """Borders accepted so far (outermost first)."""
        return tuple(self._medians)

    def table(self) -> "PartitionTable":
        """The estimated table (valid once ``pending_arc()`` is ``None``)."""
        # Imported here, not at module level: repro.core pulls in the
        # routers, which share protocol decisions — a module-level
        # import would close that loop.
        from ..core.partitions import PartitionTable

        return PartitionTable(origin=self.origin, far_end=self.far_end, medians=tuple(self._medians))

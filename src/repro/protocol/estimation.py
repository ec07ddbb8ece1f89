"""The exactness kernels of partition estimation.

:func:`select_border` and :func:`cw_arc_slice` are the scalar kernels
shared by the batched engine's sequential reference
(:mod:`repro.engine.construct`) and the per-peer join machine
(:class:`~repro.protocol.join.JoinProtocol`): exact ``uint64`` rank
medians and ``searchsorted`` arc counting, so a peer computing over a
directory snapshot agrees with the engine computing over the ring
bit-for-bit. The recursive-median descent that calls them level by level
is the engine's ``_sampled_levels`` for every peer at once and
``JoinProtocol``'s estimation level for one.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientSamplesError
from ..ring.identifiers import normalize
from ..ring.keyspace import KEY_MASK
from .decisions import border_is_terminal

__all__ = ["cw_arc_slice", "select_border"]


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
    ``_select_borders_reference``, shared verbatim with
    :class:`~repro.protocol.join.JoinProtocol`'s estimation level. A
    sample in the origin's own key cell (closer than ``2**-64``) is at
    distance 0 whichever side of the origin it lies.
    """
    n = len(sample_keys)
    if not n:
        raise InsufficientSamplesError(needed=1, got=0)
    ranks = [(int(k) - anchor_key) & KEY_MASK for k in sample_keys]
    order = sorted(range(n), key=lambda j: (ranks[j], j))
    selected = order[(n - 1) // 2]
    float_dist = (float(sample_positions[selected]) - origin) % 1.0
    border = normalize(origin + float_dist)
    return border, border_is_terminal(border, origin, previous_end)

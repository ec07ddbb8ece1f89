"""Circular identifier-space arithmetic on the unit circle ``[0, 1)``.

Oscar, Mercury and the ring substrate all reason about *clockwise*
distances on the key circle (Chord orientation: increasing key values,
wrapping at 1.0). This module is the single home of that arithmetic so
wrap-around corner cases are handled once and property-tested once.

Conventions used throughout the library:

* keys and positions are floats in ``[0, 1)``;
* ``cw_distance(a, b)`` is how far one travels clockwise from ``a`` to
  reach ``b`` — it is zero iff ``a == b`` and is **not** symmetric;
* intervals are clockwise-open/closed ``(a, b]`` unless stated otherwise,
  matching Chord's "successor owns the key" rule.

Exactness caveat — and how each layer stays exact
-------------------------------------------------

Float *comparisons* are exact, so :func:`in_cw_interval`,
:func:`in_closed_cw_range` and the clockwise order they induce are
exact at full float resolution; float *subtraction* rounds, so
:func:`cw_distance` can collapse denormal-scale separations (key
``1.4e-45`` with origin ``0.1`` measures exactly ``0.9``) and
metric/predicate verdicts can disagree at boundaries. Geometry
*decisions* therefore never use the subtractive metric. Decisions about
peers — the ring's searches, the walk kernel, the fault-aware router,
range sweeps — are made on :mod:`repro.ring.keyspace`'s exact
``uint64`` keys, and the ring admits one peer per ``2**-64`` key cell.
The float layers left — construction's partition borders and
estimators, and the protocol core the live runtime runs — decide with
this module's comparison predicates, which agree with the key rules
except for a float inside a peer's cell other than the peer's own
(only ever below ``2**-11``). ``cw_distance`` remains the
measurement/diagnostic metric of the float ``[0, 1)`` edge API.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .keyspace import KeyspaceError

__all__ = [
    "normalize",
    "cw_distance",
    "ccw_distance",
    "circular_distance",
    "in_cw_interval",
    "in_closed_cw_range",
    "cw_midpoint",
    "cw_distances",
    "KeyspaceError",
]


def _check(key: float, name: str = "key") -> float:
    if not math.isfinite(key):
        raise KeyspaceError(f"{name} must be finite, got {key!r}")
    if not 0.0 <= key < 1.0:
        raise KeyspaceError(f"{name} must be in [0, 1), got {key!r}")
    return key


def normalize(value: float) -> float:
    """Map any finite float onto the unit circle.

    ``normalize(1.25) == 0.25``, ``normalize(-0.25) == 0.75``. Exact
    multiples of 1.0 map to 0.0.
    """
    if not math.isfinite(value):
        raise KeyspaceError(f"cannot normalize non-finite value {value!r}")
    wrapped = value % 1.0
    # Python guarantees 0 <= x % 1.0 < 1.0 except that the result may be
    # exactly 1.0 - eps rounding to 1.0 for some pathological inputs; guard.
    if wrapped >= 1.0:
        wrapped = 0.0
    return wrapped


def cw_distance(a: float, b: float) -> float:
    """Clockwise distance from ``a`` to ``b``: the unique ``d in [0, 1)``
    with ``normalize(a + d) == b`` (up to float rounding).

    Guards a float edge: for ``b`` infinitesimally counter-clockwise of
    ``a`` the modulo rounds to exactly 1.0, which would escape the
    half-open range; such distances clamp to the largest float < 1.
    """
    _check(a, "a")
    _check(b, "b")
    d = (b - a) % 1.0
    if d >= 1.0:  # only reachable through rounding; a != b here
        return math.nextafter(1.0, 0.0)
    return d


def ccw_distance(a: float, b: float) -> float:
    """Counter-clockwise distance from ``a`` to ``b`` (equals
    ``cw_distance(b, a)``)."""
    return cw_distance(b, a)


def circular_distance(a: float, b: float) -> float:
    """Shortest-arc distance between ``a`` and ``b`` (symmetric, <= 0.5)."""
    d = cw_distance(a, b)
    return min(d, 1.0 - d) if d != 0.0 else 0.0


def in_cw_interval(key: float, start: float, end: float) -> bool:
    """Membership of ``key`` in the clockwise-open/closed interval
    ``(start, end]``.

    Implemented with direct comparisons (no modular arithmetic) so it is
    *exact*: subtractive distance computations lose denormal-scale
    separations to rounding, which would let a key test positive in both
    halves of a split circle.

    Degenerate case: when ``start == end`` the interval is the *entire*
    circle (clockwise from a point all the way around back to itself),
    matching Chord's convention for a single-node ring.
    """
    _check(key, "key")
    _check(start, "start")
    _check(end, "end")
    if start == end:
        return True
    if start < end:
        return start < key <= end
    return key > start or key <= end


def in_closed_cw_range(key: float, lo: float, hi: float) -> bool:
    """Membership of ``key`` in the *closed* application range ``[lo, hi]``.

    ``lo > hi`` wraps through 1.0; ``lo == hi`` is the point range (not
    the whole circle — that convention belongs to the ``(start, end]``
    overlay interval of :func:`in_cw_interval`). This is the one
    definition ``chord.scatter_range`` filters by and
    ``ReplicatedStore.range_rows`` slices by: PR 2 fixed two hand-rolled
    copies of it disagreeing about a key exactly at ``lo`` of a wrapped
    range, and keeping a single predicate is what stops that bug class
    from reopening.
    """
    _check(key, "key")
    _check(lo, "lo")
    _check(hi, "hi")
    if lo == hi:
        return key == lo
    return key == lo or in_cw_interval(key, lo, hi)


def cw_midpoint(a: float, b: float) -> float:
    """The point halfway along the clockwise arc from ``a`` to ``b``."""
    return normalize(a + cw_distance(a, b) / 2.0)


def cw_distances(origin: float, keys: "np.ndarray | Iterable[float]") -> np.ndarray:
    """Vectorized :func:`cw_distance` from one origin to many keys."""
    _check(origin, "origin")
    arr = np.asarray(list(keys) if not isinstance(keys, np.ndarray) else keys, dtype=float)
    if arr.size and ((arr < 0.0).any() or (arr >= 1.0).any()):
        raise KeyspaceError("all keys must be in [0, 1)")
    out = (arr - origin) % 1.0
    # Same rounding guard as the scalar version.
    out[out >= 1.0] = math.nextafter(1.0, 0.0)
    return out

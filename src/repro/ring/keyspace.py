"""64-bit fixed-point keyspace: exact modular ring geometry.

The ring's geometry-bearing layers (partitions, routing, the batch
engine) historically computed clockwise distances with float arithmetic
on ``[0, 1)``. Subtractive float arithmetic rounds: a key separated from
``0.1`` by ``1.4e-45`` measures a clockwise distance of *exactly*
``0.9``, so the metric (``cw_distance``) and the comparison-based
predicate (``in_cw_interval``) could disagree about boundary membership.
Two real bugs came from exactly that class — a wrapped-range
inconsistency between ``chord.scatter_range`` and the index's range
scan (PR 2) and a ``PartitionTable.partition_of`` failure at the
far-end border (PR 3).

This module removes the class instead of patching instances: keys are
``uint64`` points on a circle of size ``2**64``, where modular
arithmetic is *exact and total* — ``cw_distance(a, b)`` is plain
wrapping subtraction, and ``in_cw_interval`` is **defined** through it,
so metric and predicate agree by construction. Every scalar operation
has a vectorized numpy ``uint64`` twin that is bit-equivalent (asserted
by tests over 10^6 random pairs), and integer subtraction is also
cheaper than float ``%`` on the batched hot path.

Adapter contract (``from_unit`` / ``to_unit``)
----------------------------------------------

Workloads, experiments and stored artifacts keep their float ``[0, 1)``
interface; conversion happens once at the API edge:

* ``from_unit(x)`` is the exact ``floor(x * 2**64)`` — computed in
  integer arithmetic, never through a rounding float multiply. It is
  monotone, so float comparisons and key comparisons always agree, and
  it is *lossless* for every float ``x >= 2**-11`` (whose ulp is at
  least the ``2**-64`` cell width): ``to_unit(from_unit(x)) == x``.
  Floats below ``2**-11`` (including denormals) are quantized onto the
  ``2**-64`` grid — the keyspace's resolution limit, which
  :class:`~repro.ring.ring.Ring` enforces by admitting one peer per
  key cell.
* ``to_unit(k)`` is the correctly-rounded ``k / 2**64``, clamped into
  ``[0, 1)``. It is a *section* of ``from_unit`` on its image:
  ``from_unit(to_unit(from_unit(x))) == from_unit(x)`` for every float
  ``x``, and ``from_unit(to_unit(k)) == k`` whenever ``k / 2**64`` is
  exactly representable (all ``k < 2**53`` and all multiples of
  ``2**11``).

Scalar keys are plain Python ints (no numpy scalar types leak out);
array kernels take and return ``numpy.uint64`` arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal

import numpy as np

__all__ = [
    "KEY_BITS",
    "KEY_MOD",
    "KEY_MASK",
    "KEY_DTYPE",
    "RESOLUTION",
    "Key",
    "KeyspaceError",
    "check_key",
    "from_unit",
    "to_unit",
    "cw_distance",
    "ccw_distance",
    "in_cw_interval",
    "midpoint",
    "cw_rank_key",
    "from_units",
    "to_units",
    "cw_distances",
    "in_cw_intervals",
    "search_sorted",
]

#: Width of a key in bits; the circle has ``2**KEY_BITS`` cells.
KEY_BITS = 64

#: Size of the circle (one full clockwise revolution).
KEY_MOD = 1 << KEY_BITS

#: Mask implementing ``% KEY_MOD`` for Python-int arithmetic.
KEY_MASK = KEY_MOD - 1

#: Dtype of all vectorized key kernels.
KEY_DTYPE = np.dtype(np.uint64)

#: Width of one key cell on the unit circle (``2**-64``). Two floats
#: closer than this can land on the same key.
RESOLUTION = 1.0 / KEY_MOD

#: A point on the fixed-point circle: an int in ``[0, 2**64)``.
Key = int

#: Largest float strictly below 1.0 — ``to_unit``'s clamp value.
_ONE_BELOW_ONE = math.nextafter(1.0, 0.0)

#: ``2.0**64`` (exactly representable); the vectorized adapter scale.
_SCALE = float(KEY_MOD)


class KeyspaceError(ValueError):
    """A key fell outside its domain or was not a finite number.

    Raised for floats outside ``[0, 1)`` (or non-finite) and for ints
    outside ``[0, 2**64)``. Defined here and re-exported by
    :mod:`repro.ring.identifiers` for backwards compatibility.
    """


def check_key(key: int, name: str = "key") -> int:
    """Validate an integer key, returning it as a plain Python int."""
    k = int(key)
    if not 0 <= k < KEY_MOD:
        raise KeyspaceError(f"{name} must be in [0, 2**64), got {key!r}")
    return k


def _check_unit(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise KeyspaceError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= value < 1.0:
        raise KeyspaceError(f"{name} must be in [0, 1), got {value!r}")
    return value


# ----------------------------------------------------------------------
# float <-> key adapters
# ----------------------------------------------------------------------


def from_unit(value: float, name: str = "key") -> Key:
    """Exact ``floor(value * 2**64)`` for a float in ``[0, 1)``.

    Computed from the float's exact integer ratio, so no intermediate
    rounding occurs — denormals quantize to the true grid cell rather
    than to whatever a float multiply happens to produce.
    """
    _check_unit(value, name)
    numerator, denominator = float(value).as_integer_ratio()
    if denominator <= KEY_MOD:  # value is on (or coarser than) the grid
        return numerator * (KEY_MOD // denominator)
    return numerator // (denominator // KEY_MOD)  # exact floor; value > 0


def to_unit(key: Key) -> float:
    """Correctly-rounded ``key / 2**64``, clamped into ``[0, 1)``.

    The clamp matters only for the topmost ``2**10`` keys, whose exact
    quotients round to 1.0 — they map to the largest float below 1.0 so
    the result always stays a valid unit-circle key.
    """
    quotient = check_key(key) / KEY_MOD  # int/int division rounds correctly
    return _ONE_BELOW_ONE if quotient >= 1.0 else quotient


# ----------------------------------------------------------------------
# scalar geometry (exact, total)
# ----------------------------------------------------------------------


def cw_distance(a: Key, b: Key) -> Key:
    """Clockwise distance from ``a`` to ``b``: the unique ``d`` in
    ``[0, 2**64)`` with ``(a + d) % 2**64 == b``. Exact — no rounding,
    no clamp, no edge cases."""
    return (b - a) & KEY_MASK


def ccw_distance(a: Key, b: Key) -> Key:
    """Counter-clockwise distance from ``a`` to ``b`` (equals
    ``cw_distance(b, a)``)."""
    return (a - b) & KEY_MASK


def in_cw_interval(key: Key, start: Key, end: Key) -> bool:
    """Membership of ``key`` in the clockwise interval ``(start, end]``.

    Defined *through the metric*: ``key`` is inside iff its clockwise
    distance from ``start`` is positive and does not exceed the
    interval's span. Because the metric is exact, metric and predicate
    cannot disagree — the float-era bug class this module exists to
    kill. ``start == end`` denotes the whole circle (Chord's single-node
    convention), matching :func:`repro.ring.identifiers.in_cw_interval`.
    """
    if start == end:
        return True
    return 0 < ((key - start) & KEY_MASK) <= ((end - start) & KEY_MASK)


def midpoint(a: Key, b: Key) -> Key:
    """The key halfway along the clockwise arc from ``a`` to ``b``
    (rounded toward ``a`` when the span is odd)."""
    return (a + (((b - a) & KEY_MASK) >> 1)) & KEY_MASK


def cw_rank_key(origin: Key, keys: "Iterable[Key]", rank: int) -> Key:
    """The key at 0-indexed clockwise ``rank`` from ``origin``.

    ``rank == (len(keys) - 1) // 2`` gives the lower median in clockwise
    order — the exact-order-statistic primitive behind Oscar's partition
    borders. Ties (duplicate keys) keep input order (stable sort).
    """
    ordered = sorted(keys, key=lambda k: (k - origin) & KEY_MASK)
    if not ordered:
        raise KeyspaceError("cw_rank_key needs at least one key")
    if not 0 <= rank < len(ordered):
        raise KeyspaceError(f"rank must be in [0, {len(ordered)}), got {rank}")
    return ordered[rank]


# ----------------------------------------------------------------------
# vectorized kernels (numpy uint64) — bit-equivalent to the scalars
# ----------------------------------------------------------------------


def from_units(values: "np.ndarray | Iterable[float]") -> np.ndarray:
    """Vectorized :func:`from_unit`.

    ``x * 2.0**64`` is a power-of-two scale — exact for every float in
    ``[0, 1)`` — and the uint64 cast truncates toward zero, so the kernel
    is the same exact floor as the scalar (property-tested on 10^6
    values including denormals).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and (
        not np.isfinite(arr).all() or (arr < 0.0).any() or (arr >= 1.0).any()
    ):
        raise KeyspaceError("all values must be finite and in [0, 1)")
    return (arr * _SCALE).astype(np.uint64)


def to_units(keys: "np.ndarray | Iterable[int]") -> np.ndarray:
    """Vectorized :func:`to_unit` (round-to-nearest then exact scale,
    clamped below 1.0)."""
    arr = np.asarray(keys, dtype=np.uint64)
    out = arr.astype(np.float64) / _SCALE
    return np.minimum(out, _ONE_BELOW_ONE)


def cw_distances(origin: "Key | np.uint64", keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`cw_distance` from one origin to many keys
    (wrapping uint64 subtraction — exact, branch-free)."""
    arr = np.asarray(keys, dtype=np.uint64)
    return arr - np.uint64(origin)


def in_cw_intervals(
    keys: np.ndarray,
    start: "np.ndarray | Key",
    end: "np.ndarray | Key",
) -> np.ndarray:
    """Vectorized :func:`in_cw_interval` (broadcasting; ``start == end``
    elements denote the whole circle)."""
    keys_arr = np.asarray(keys, dtype=np.uint64)
    start_arr = np.asarray(start, dtype=np.uint64)
    end_arr = np.asarray(end, dtype=np.uint64)
    distance = keys_arr - start_arr
    span = end_arr - start_arr
    zero = np.uint64(0)
    return (start_arr == end_arr) | ((distance > zero) & (distance <= span))


def search_sorted(
    column: np.ndarray, queries: np.ndarray, side: Literal["left", "right"] = "left"
) -> np.ndarray:
    """``np.searchsorted(column, queries, side)`` for a batch of queries
    of any shape, asked in sorted order.

    Asked in key order the binary searches walk the column front to back
    instead of jumping around it — at 100k rows less than half the time
    of the same questions in arrival order — so the queries are sorted,
    searched, and the answers scattered back to where each question
    stood. Every answer depends on its own query alone, so the result is
    the plain ``searchsorted`` exactly. ``queries`` must already have
    ``column``'s dtype (``searchsorted`` compares mixed ``uint64`` /
    ``int64`` as floats).
    """
    flat = np.asarray(queries).reshape(-1)
    order = np.argsort(flat)
    found = np.empty(flat.size, dtype=np.intp)
    found[order] = np.searchsorted(column, flat[order], side=side)
    return found.reshape(np.shape(queries))

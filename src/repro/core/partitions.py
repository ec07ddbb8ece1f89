"""Logarithmic partitions with recursive-median borders (paper §2).

An Oscar node ``u`` divides the rest of the population, ordered
*clockwise from itself*, into partitions ``A_1 .. A_k``:

* ``A_1`` — the clockwise-farthest half of all other peers,
* ``A_2`` — the farthest half of what remains, and so on;
* ``A_k`` — whatever remains nearest to ``u``.

The border between ``A_i`` and ``A_{i+1}`` is the *median* ``m_i`` of the
subpopulation ``P \\ (A_1 ∪ .. ∪ A_{i-1})`` in clockwise order from
``u`` — so ideally ``|A_1| = n/2``, ``|A_2| = n/4``, ... Choosing a
partition uniformly and then a member uniformly approximates Kleinberg's
harmonic rank distribution for any key skew, which is what makes the
network greedily navigable.

A :class:`PartitionTable` is the *result* of that construction — origin
plus the ordered median borders — regardless of whether the medians were
computed exactly (oracle) or estimated from samples
(:mod:`repro.core.estimators`).

Geometry conventions: partition ``A_i`` is the clockwise arc
``(m_i, m_{i-1}]`` with ``m_0 = origin`` playing the far end (the arc
"ends" back at the node) and the innermost partition starting at the
origin. All arcs are ``(start, end]`` intervals as in
:func:`repro.ring.in_cw_interval`; the origin position itself belongs to
no partition (a node is never its own long-range neighbor).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PartitionError
from ..ring.identifiers import cw_distance, in_cw_interval

__all__ = ["PartitionTable"]


@dataclass(frozen=True)
class PartitionTable:
    """Origin + recursive-median borders, farthest partition first.

    Attributes:
        origin: The owning node's position.
        far_end: End of the outermost arc — the position of the node's
            ring predecessor (the clockwise-farthest peer). Using the
            true predecessor instead of the origin avoids the degenerate
            "whole-circle" interval and guarantees the node itself can
            never be selected.
        medians: ``(m_1, m_2, ..., m_j)`` — strictly decreasing clockwise
            distance from ``origin``; ``j + 1`` partitions result. May be
            empty (tiny populations): then the single partition is the
            whole population.
    """

    origin: float
    far_end: float
    medians: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # Monotonicity is validated with comparisons only (the same
        # ``(start, end]`` predicate the arcs are later read with), not
        # with the subtractive float metric: subtraction rounds, so a
        # border a denormal step outside its arc could measure as inside
        # (or vice versa). Comparison order is exact at full float
        # resolution, which is exactly what makes the arcs provably tile
        # ``(origin, far_end]``.
        previous = self.far_end
        for index, median in enumerate(self.medians):
            inside = median == self.origin or (
                previous != self.origin
                and in_cw_interval(median, self.origin, previous)
            )
            if not inside:
                reference = "the far end" if index == 0 else f"median {index}"
                raise PartitionError(
                    f"median {index + 1} at {median!r} lies beyond {reference} "
                    f"(cw distance {cw_distance(self.origin, median):.6f} vs "
                    f"{cw_distance(self.origin, previous):.6f}); medians must "
                    f"shrink monotonically toward the origin"
                )
            previous = median

    @property
    def n_partitions(self) -> int:
        """Number of partitions (``len(medians) + 1``)."""
        return len(self.medians) + 1

    def arc(self, index: int) -> tuple[float, float] | None:
        """Clockwise arc ``(start, end]`` of 1-indexed partition ``index``.

        Returns ``None`` for a degenerate (provably empty) arc, which can
        arise from sampling noise when two consecutive medians coincide.
        """
        if not 1 <= index <= self.n_partitions:
            raise PartitionError(f"partition index must be in [1, {self.n_partitions}], got {index}")
        ends = (self.far_end,) + self.medians  # m_0 (= far end), m_1, ..., m_j
        end = ends[index - 1]
        start = self.medians[index - 1] if index <= len(self.medians) else self.origin
        if start == end and index > 1:
            return None
        return (start, end)

    def arcs(self) -> list[tuple[float, float] | None]:
        """All partition arcs, outermost first (index 1 .. k)."""
        return [self.arc(i) for i in range(1, self.n_partitions + 1)]

    def partition_of(self, key: float) -> int:
        """1-indexed partition containing ``key``.

        Raises :class:`PartitionError` when ``key`` equals the origin or
        lies beyond the far end (i.e. on the owner itself).
        """
        if key == self.origin:
            raise PartitionError("the origin belongs to no partition")
        for index in range(1, self.n_partitions + 1):
            bounds = self.arc(index)
            if bounds is not None and in_cw_interval(key, bounds[0], bounds[1]):
                return index
        # The arcs tile ``(origin, far_end]`` exactly, so reaching this
        # point means the comparison-based predicate places ``key`` in the
        # owner's gap ``(far_end, origin)``. The subtractive metric is
        # coarser: a key separated from ``far_end`` by less than one float
        # rounding step measures *exactly* the far-end distance (e.g. key
        # 1.4e-45 with origin 0.1 rounds to 0.9). When metric and
        # predicate disagree like that, the metric's verdict — "at the
        # far-end boundary" — wins, and boundary keys belong to the
        # outermost arc (arcs are end-inclusive).
        distance = cw_distance(self.origin, key)
        far_distance = cw_distance(self.origin, self.far_end)
        if distance <= far_distance:
            return 1
        raise PartitionError(
            f"key {key!r} lies outside every partition of origin {self.origin!r}: "
            f"cw distance {distance!r} exceeds the far-end distance {far_distance!r}\n"
            + self.describe()
        )

    def describe(self) -> str:
        """Human-readable dump used by diagnostics and the CLI."""
        parts = [f"PartitionTable(origin={self.origin:.6f}, k={self.n_partitions})"]
        for i, bounds in enumerate(self.arcs(), start=1):
            if bounds is None:
                parts.append(f"  A_{i}: <empty>")
            else:
                width = cw_distance(bounds[0], bounds[1])
                parts.append(f"  A_{i}: ({bounds[0]:.6f}, {bounds[1]:.6f}] width={width:.6f}")
        return "\n".join(parts)

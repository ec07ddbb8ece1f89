"""Range queries: the "non-exact" lookups Oscar exists to support.

The paper positions Oscar among overlays that "support complex
non-uniform key distribution and hence non-exact queries (e.g. range or
similarity queries)". Over a ring-ordered key space a range query is the
classic two-phase walk:

1. greedy-route to the peer responsible for the range start
   (``successor(lo)``), paying the usual logarithmic search cost;
2. sweep ring successors until the peer's position passes the range end,
   paying one hop per peer whose arc intersects the range.

Cost is therefore ``O(log-ish + |peers in range|)`` — and because Oscar
keeps per-peer *key-space* responsibility aligned with storage budgets,
skew shows up as more peers (not more data per peer) in hot ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..ring.keyspace import KEY_MOD, cw_distance, from_unit
from ..types import Key, NodeId
from .result import RouteResult

if TYPE_CHECKING:  # pragma: no cover - core imports routing
    from ..core.substrate import Substrate

__all__ = ["RangeQueryResult", "route_range"]


@dataclass(frozen=True)
class RangeQueryResult:
    """Outcome of one range query.

    Attributes:
        source: Originating peer.
        lo: Range start (inclusive, as a point on the circle).
        hi: Range end (inclusive); ``lo > hi`` wraps through 1.0.
        entry_route: The greedy route to ``successor(lo)``.
        owners: Every live peer whose arc intersects the range, in ring
            order starting at the entry peer.
        sweep_hops: Ring hops spent in phase two.
    """

    source: NodeId
    lo: Key
    hi: Key
    entry_route: RouteResult
    owners: tuple[NodeId, ...]
    sweep_hops: int

    @property
    def total_cost(self) -> int:
        """Messages: entry search cost + successor sweep."""
        return self.entry_route.cost + self.sweep_hops

    @property
    def success(self) -> bool:
        """Whether the entry phase delivered (sweep cannot fail on a
        repaired ring)."""
        return self.entry_route.success


def route_range(substrate: "Substrate", source: NodeId, lo: Key, hi: Key) -> RangeQueryResult:
    """Resolve every live owner of keys in ``[lo, hi]``.

    ``lo > hi`` is the wrapped range through 1.0. The entry lookup is
    :meth:`substrate.route <repro.core.substrate.Substrate.route>` (the
    fault-aware router while the ring holds a dead peer); the sweep
    walks the ring successor pointers of ``substrate.state.succ``
    (always live after repair).

    The owner set starts at the entry peer (``successor(lo)``, which
    owns ``lo``) and sweeps ring successors up to and including
    ``successor(hi)``, the peer owning the range's tail slice — every
    key in ``[lo, hi]`` is owned by exactly one peer in the set.
    ``lo == hi`` is the point range (a single owner), not the whole
    circle; two ends in one ``2**-64`` key cell with ``hi < lo`` are the
    full circle, as in :meth:`ServeEngine.serve_range
    <repro.engine.serve.ServeEngine.serve_range>`.
    """
    entry = substrate.route(source, lo)
    if not entry.success or entry.delivered_to is None:
        return RangeQueryResult(
            source=source, lo=lo, hi=hi, entry_route=entry, owners=(), sweep_hops=0
        )

    state = substrate.state
    owners: list[NodeId] = [entry.delivered_to]
    sweep_hops = 0
    current = entry.delivered_to
    # Sweep successor pointers while the current owner's key sits in the
    # half-open clockwise range ``[lo, hi)`` of keys — the exact test
    # ``serve_range`` makes; the `in owners` guard ends the full circle
    # and degenerate (single-peer) rings.
    lo_key = from_unit(lo)
    width = cw_distance(lo_key, from_unit(hi))
    reach = KEY_MOD if width == 0 and hi < lo else width
    while cw_distance(lo_key, int(state.key[state.slot_of(current)])) < reach:
        nxt = int(state.succ[state.slot_of(current)])
        if nxt < 0 or nxt == current or nxt in owners:
            break
        owners.append(nxt)
        sweep_hops += 1
        current = nxt
    return RangeQueryResult(
        source=source,
        lo=lo,
        hi=hi,
        entry_route=entry,
        owners=tuple(owners),
        sweep_hops=sweep_hops,
    )


"""Fault-aware greedy routing with probe accounting and backtracking.

This is the modified router of the paper's churn experiments ("we have
modified the greedy routing algorithm ... by introducing a backtracking
mechanism in case the algorithm arrives to a peer with 'dead' links.
However, the possibility to backtrack incurs some 'wasted' traffic").

Model
-----

* Crashed peers remain addressable (links still point at them); learning
  that a neighbor is dead costs one timed-out probe message, charged once
  per route (the originator caches discoveries along the path).
* At each live peer the route tries candidates best-first (largest
  clockwise progress that does not pass the key); the ring successor is
  naturally the last improving fallback.
* If a peer has no remaining untried live candidate, the route backtracks
  to the previous peer (one message) and resumes with its next-best
  candidate — a depth-first search whose visited set guarantees
  termination.
* Candidates positioned *past* the key are tried last (closest-after-key
  first): they are delivery attempts for the case where the proper ring
  successor is dead and pointers were not repaired.

With ring repair enabled (the paper's assumption) backtracking is rare —
the live ring successor always makes progress — and the elevated search
cost under churn comes from wasted probes; without repair the
backtracking machinery carries the route.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from ..config import RoutingConfig
from ..errors import DeadNodeError
from ..ring import Ring, RingPointers
from ..ring.keyspace import cw_distance, from_unit
from ..types import Key, NodeId
from .result import RouteResult

__all__ = ["NeighborProvider", "route_faulty"]

_DEFAULT = RoutingConfig()


@runtime_checkable
class NeighborProvider(Protocol):
    """Read access to a node's outgoing neighbor set — every
    :class:`~repro.core.substrate.Substrate` is one.

    Implementations must return *all* outgoing links (ring + long-range,
    in any order — the router sorts), including links that currently
    point at dead peers: discovering those is the router's job, and
    charging for it is the point of the churn experiments.
    """

    def neighbors_of(self, node_id: NodeId) -> Sequence[NodeId]:
        """Outgoing neighbor ids of ``node_id`` (order irrelevant)."""
        ...


def route_faulty(
    ring: Ring,
    pointers: RingPointers,
    neighbors: NeighborProvider,
    source: NodeId,
    target_key: Key,
    config: RoutingConfig = _DEFAULT,
    record_path: bool = False,
) -> RouteResult:
    """Route one query in a network with crashed peers.

    Returns a :class:`RouteResult` whose ``cost`` includes forward hops,
    wasted probes and backtrack messages; ``success`` is ``False`` when
    the budget ran out or the depth-first search exhausted every path
    (possible only in heavily damaged, unrepaired topologies).

    Raises:
        DeadNodeError: ``source`` itself is dead — queries originate only
            at live peers.
    """
    if not ring.is_alive(source):
        raise DeadNodeError(source, "route_faulty")
    target = from_unit(target_key)  # every decision below is on keys
    responsible = ring.successor_of_key(target_key, live_only=True)

    hops = 0
    probes = 0
    backtracks = 0
    known_dead: set[NodeId] = set()
    visited: set[NodeId] = {source}
    path: list[NodeId] = [source] if record_path else []

    def make_result(delivered: NodeId | None, success: bool) -> RouteResult:
        return RouteResult(
            source=source,
            target_key=target_key,
            responsible=responsible,
            delivered_to=delivered,
            success=success,
            hops=hops,
            wasted_probes=probes,
            backtracks=backtracks,
            path=tuple(path),
        )

    if source == responsible:
        return make_result(source, True)

    stack: list[tuple[NodeId, "list[NodeId]", int]] = []
    stack.append((source, _candidates(ring, pointers, neighbors, source, target), 0))

    while stack:
        node, cands, cursor = stack[-1]
        advanced = False
        while cursor < len(cands):
            candidate = cands[cursor]
            cursor += 1
            stack[-1] = (node, cands, cursor)
            if candidate in visited:
                continue
            if hops + probes + backtracks >= config.budget:
                return make_result(None, False)
            if not ring.is_alive(candidate):
                if candidate not in known_dead:
                    known_dead.add(candidate)
                    probes += 1
                continue
            hops += 1
            visited.add(candidate)
            if record_path:
                path.append(candidate)
            if candidate == responsible:
                return make_result(candidate, True)
            stack.append(
                (candidate, _candidates(ring, pointers, neighbors, candidate, target), 0)
            )
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                backtracks += 1
                if hops + probes + backtracks >= config.budget:
                    return make_result(None, False)

    return make_result(None, False)


def _candidates(
    ring: Ring,
    pointers: RingPointers,
    neighbors: NeighborProvider,
    node: NodeId,
    target: int,
) -> list[NodeId]:
    """Candidate next hops from ``node`` toward the ``uint64`` key
    ``target``, in greedy-preference order.

    Three tiers (deduplicated, ``node`` itself excluded):

    1. if the key falls between ``node`` and its ring successor pointer,
       that successor — the delivery hop — comes absolutely first;
    2. improving links (clockwise progress <= distance to the key),
       largest progress first;
    3. links already past the key, closest-after-the-key first
       (last-resort delivery attempts when the ring is unrepaired).

    Progress and "past the key" are exact ``uint64`` clockwise distances
    (:func:`~repro.ring.keyspace.cw_distance`), the walk kernel's; keys
    are distinct (one peer per ``2**-64`` cell), so they cannot tie, and
    with the key exactly at ``node`` (distance 0) nothing improves.
    """
    node_key = ring.key_of(node)
    span = cw_distance(node_key, target)  # the key's own progress
    succ = pointers.successor.get(node)

    seen: set[NodeId] = {node}
    improving: list[tuple[int, NodeId]] = []
    past: list[tuple[int, NodeId]] = []
    head: list[NodeId] = []

    if succ is not None and succ != node:
        seen.add(succ)
        progress = cw_distance(node_key, ring.key_of(succ))
        if 0 < span <= progress:
            head.append(succ)
        else:
            improving.append((progress, succ))

    for link in neighbors.neighbors_of(node):
        if link in seen:
            continue
        seen.add(link)
        link_key = ring.key_of(link)
        progress = cw_distance(node_key, link_key)
        if progress <= span:
            improving.append((progress, link))
        else:
            past.append((cw_distance(target, link_key), link))

    improving.sort(reverse=True)
    past.sort()
    return head + [n for __, n in improving] + [n for __, n in past]

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
from ..ring import Ring, RingPointers, in_cw_interval
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
    stack.append((source, _candidates(ring, pointers, neighbors, source, target_key), 0))

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
                    probes += config.probe_cost
                continue
            hops += 1
            visited.add(candidate)
            if record_path:
                path.append(candidate)
            if candidate == responsible:
                return make_result(candidate, True)
            stack.append(
                (candidate, _candidates(ring, pointers, neighbors, candidate, target_key), 0)
            )
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                backtracks += config.backtrack_cost
                if hops + probes + backtracks >= config.budget:
                    return make_result(None, False)

    return make_result(None, False)


def _candidates(
    ring: Ring,
    pointers: RingPointers,
    neighbors: NeighborProvider,
    node: NodeId,
    target_key: Key,
) -> list[NodeId]:
    """Candidate next hops from ``node``, in greedy-preference order.

    Three tiers (deduplicated, ``node`` itself excluded):

    1. if the key falls between ``node`` and its ring successor pointer,
       that successor — the delivery hop — comes absolutely first;
    2. improving links (clockwise progress <= distance to the key),
       largest progress first;
    3. links already past the key, closest-after-the-key first
       (last-resort delivery attempts when the ring is unrepaired).

    Progress and "past the key" are decided with comparisons only
    (:func:`~repro.ring.identifiers.in_cw_interval` and the clockwise
    rank order of :func:`~repro.protocol.decisions.cw_closer`) — exact at
    full float resolution, so the preference order cannot be scrambled
    by subtractive rounding at arc boundaries. Exact order cannot tie on
    distinct positions, so no id tie-break is needed.
    """
    node_pos = ring.position(node)
    succ = pointers.successor.get(node)

    seen: set[NodeId] = {node}
    improving: list[tuple[tuple[bool, float], NodeId]] = []
    past: list[tuple[tuple[bool, float], NodeId]] = []
    head: list[NodeId] = []

    if succ is not None and succ != node:
        seen.add(succ)
        succ_pos = ring.position(succ)
        if in_cw_interval(target_key, node_pos, succ_pos):
            head.append(succ)
        else:
            improving.append((_cw_rank(node_pos, succ_pos), succ))

    for link in neighbors.neighbors_of(node):
        if link in seen:
            continue
        seen.add(link)
        link_pos = ring.position(link)
        if link_pos == node_pos:
            continue
        # Zero-span guard: with the key exactly at `node`, nothing can
        # improve ("(node, node]" would read as the whole circle).
        if target_key != node_pos and in_cw_interval(link_pos, node_pos, target_key):
            improving.append((_cw_rank(node_pos, link_pos), link))
        else:
            past.append((_cw_rank(target_key, link_pos), link))

    improving.sort(key=lambda item: item[0], reverse=True)
    past.sort(key=lambda item: item[0])
    return head + [n for __, n in improving] + [n for __, n in past]


def _cw_rank(origin: float, position: float) -> tuple[bool, float]:
    """A sort key realizing exact clockwise-from-``origin`` order:
    positions at/after the origin first (ascending), wrapped positions
    after (ascending) — the total order :func:`cw_closer` compares by."""
    return (position < origin, position)

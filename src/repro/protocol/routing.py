"""Greedy routing as a single local decision: deliver here or forward.

:class:`GreedyRouter` is the per-hop rule of the paper's greedy lookup,
stated over information one peer legitimately holds — its own position,
its predecessor's position, and ``(id, position)`` pairs for its ring
and long-link neighbors. The net runtime applies it hop by hop as
:class:`~repro.protocol.messages.RouteProbe` messages arrive. The
simulator states the same rule once, over exact ``uint64`` keys, as the
walk kernel behind :meth:`Substrate.route
<repro.core.substrate.Substrate.route>` (:mod:`repro.engine.walk`);
this float-domain statement, driven hop by hop, is the independent
reference the tests hold that kernel to, so a probe and the simulator
traverse identical paths on identical topologies (peers in distinct
``2**-64`` key cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import RoutingError
from ..ring.identifiers import in_cw_interval
from ..types import NodeId
from .decisions import closest_preceding

__all__ = ["Deliver", "Forward", "GreedyRouter"]


@dataclass(frozen=True)
class Deliver:
    """This peer is responsible for the key: the lookup terminates here."""


@dataclass(frozen=True)
class Forward:
    """Hand the lookup to neighbor ``to`` (maximal clockwise progress)."""

    to: NodeId


class GreedyRouter:
    """Stateless per-hop greedy routing decision."""

    @staticmethod
    def decide(
        target_key: float,
        *,
        me: NodeId,
        my_position: float,
        predecessor_position: float,
        successor: NodeId,
        successor_position: float,
        neighbors: Iterable[tuple[NodeId, float]],
    ) -> Deliver | Forward:
        """Deliver if responsible, else forward greedily.

        A peer is responsible for exactly the keys in ``(pred, self]`` —
        the successor-of-key placement rule, stated locally (a sole
        member owns the whole circle). Otherwise: if the key falls in
        ``(self, successor]`` no neighbor can precede it more closely
        than the ring successor (the final-interval rule); failing that,
        forward to the closest preceding neighbor. A hop that cannot
        make progress raises :class:`RoutingError`, as the simulator's
        walk stops with ``WalkCode.STUCK``.
        """
        if predecessor_position == my_position or in_cw_interval(
            target_key, predecessor_position, my_position
        ):
            return Deliver()
        if in_cw_interval(target_key, my_position, successor_position):
            return Forward(to=int(successor))
        best, best_pos = closest_preceding(
            me, my_position, target_key, successor, successor_position, neighbors
        )
        if best == me or best_pos == my_position:
            raise RoutingError(f"greedy routing stuck at node {me}")
        return Forward(to=int(best))

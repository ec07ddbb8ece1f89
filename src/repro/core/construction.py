"""Long-range link acquisition and rewiring (paper §2–3).

The acquisition procedure per outgoing slot of peer ``u``:

1. choose one logarithmic partition ``A_i`` uniformly at random;
2. draw candidate peers uniformly at random *within* ``A_i`` — two
   candidates when the "power of two choices" balancer is on, one
   otherwise;
3. every candidate below its ``rho_max_in`` acknowledges; among
   acknowledging candidates the one with the lower current in-degree is
   linked (ties: fewer spare slots first, then id, for determinism);
4. if nobody acknowledged, redraw — up to ``link_retries`` times — then
   give the slot up.

Peers thereby contribute *at most* what they are willing to (hard cap
invariant, enforced by :class:`~repro.core.node.OscarNode`), and the
choice-of-two keeps relative in-degree load even across heterogeneous
caps — the effect Figure 1(b) measures.

Rewiring ("periodically rewiring long-range links of all the peers")
drops every long link, re-estimates every partition table against the
*current* population, and re-acquires links in a random peer order so no
cohort systematically wins the race for scarce in-capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import OscarConfig
from ..protocol.decisions import accepts_link, link_winner_key
from ..ring import Ring
from ..types import NodeId
from .estimators import estimate_partitions
from .node import OscarNode
from .partitions import PartitionTable

if TYPE_CHECKING:  # pragma: no cover
    from .overlay import OscarOverlay

__all__ = ["acquire_links", "rewire_all", "LinkAcquisitionStats"]


@dataclass(slots=True)
class LinkAcquisitionStats:
    """Counters describing one acquisition run (diagnostics/ablations).

    ``conflicts`` counts requests that were acknowledged but lost the
    commit race for a candidate's last free slot within one acquisition
    round — only the round-based batched engine
    (:class:`repro.engine.construct.BatchConstructionEngine`) can lose
    such races; the one-peer-at-a-time scalar path always leaves it 0.
    """

    links_placed: int = 0
    slots_given_up: int = 0
    draws: int = 0
    refusals: int = 0
    empty_partition_draws: int = 0
    conflicts: int = 0

    def merge(self, other: object) -> None:
        """Accumulate another run's counters into this one (``other``
        is anything carrying the six fields, e.g. a live peer's
        :class:`~repro.protocol.join.JoinProtocol`)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order) for artifacts and tests."""
        return {name: int(getattr(self, name)) for name in self.__slots__}


def acquire_links(
    ring: Ring,
    nodes: dict[NodeId, OscarNode],
    node: OscarNode,
    config: OscarConfig,
    rng: np.random.Generator,
) -> LinkAcquisitionStats:
    """Fill ``node``'s outgoing slots using its current partition table.

    Requires ``node.partitions`` to be set. Already-held links are kept;
    only the remaining slots are filled (so the same routine serves both
    initial join and post-reset rewiring).
    """
    stats = LinkAcquisitionStats()
    table = node.partitions
    if table is None:
        raise ValueError(f"node {node.node_id} has no partition table yet")
    target = node.rho_max_out
    existing = set(node.out_links)

    while len(node.out_links) < target:
        placed = _acquire_one(ring, nodes, node, table, config, rng, existing, stats)
        if not placed:
            stats.slots_given_up += 1
            break
    return stats


def _acquire_one(
    ring: Ring,
    nodes: dict[NodeId, OscarNode],
    node: OscarNode,
    table: PartitionTable,
    config: OscarConfig,
    rng: np.random.Generator,
    existing: set[NodeId],
    stats: LinkAcquisitionStats,
) -> bool:
    """Try to place a single long link; True on success."""
    n_candidates = 2 if config.power_of_two else 1
    for __ in range(config.link_retries + 1):
        stats.draws += 1
        arc = table.arc(table.sample_partition(rng))
        if arc is None:
            stats.empty_partition_draws += 1
            continue
        drawn = ring.choose_in_cw_range(rng, arc[0], arc[1], k=n_candidates, live_only=True)
        if drawn.size == 0:
            stats.empty_partition_draws += 1
            continue
        accepting: list[OscarNode] = []
        for candidate_id in sorted({int(c) for c in drawn}):
            if candidate_id == node.node_id or candidate_id in existing:
                continue
            candidate = nodes[candidate_id]
            if accepts_link(candidate.in_degree, candidate.rho_max_in):
                accepting.append(candidate)
            else:
                stats.refusals += 1
        if not accepting:
            continue
        # Power of two choices: the shared protocol winner key — lowest
        # current in-degree, ties toward more spare capacity, then id.
        chosen = min(
            accepting, key=lambda c: link_winner_key(c.in_degree, c.rho_max_in, c.node_id)
        )
        chosen.accept_in_link()
        node.out_links.append(chosen.node_id)
        existing.add(chosen.node_id)
        stats.links_placed += 1
        return True
    return False


def rewire_all(overlay: "OscarOverlay", rng: np.random.Generator) -> LinkAcquisitionStats:
    """Global rewiring round: re-estimate all partitions, re-acquire links.

    Order of operations matters and mirrors what concurrent peers would
    observe over a rewiring epoch:

    1. all long links are dropped and in-degrees reset (teardown);
    2. every peer re-estimates its partition table against the current
       population (estimation sees no long links in WALK mode beyond the
       ring, exactly like a fresh bootstrap epoch);
    3. peers re-acquire links one by one in a random order.
    """
    nodes = overlay.nodes
    live_ids = [nid for nid in overlay.ring.node_ids(live_only=True)]

    for node_id in live_ids:
        node = nodes[node_id]
        node.reset_links()
        node.in_degree = 0

    for node_id in live_ids:
        node = nodes[node_id]
        node.partitions = estimate_partitions(
            overlay.ring,
            node_id,
            overlay.config,
            rng,
            neighbor_fn=overlay.neighbors_of,
        )
        node.samples_spent += overlay.config.sample_size * max(
            0, (node.partitions.n_partitions - 1)
        )

    order = np.array(live_ids, dtype=np.int64)
    rng.shuffle(order)
    total = LinkAcquisitionStats()
    for node_id in order:
        total.merge(acquire_links(overlay.ring, nodes, nodes[int(node_id)], overlay.config, rng))
    return total

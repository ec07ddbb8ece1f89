"""The exact partition table — the reference every sampled estimate is held to.

The paper's nodes cannot see the population; they *estimate* each median
"by uniformly sampling each subpopulation B_i" with restricted random
walkers. Every fidelity level of :class:`~repro.config.SamplingMode` is
run for all peers at once by
:class:`~repro.engine.construct.BatchConstructionEngine`; this module
keeps :func:`oracle_partitions` — exact recursive medians straight from
the ring's order statistics (`O(k log N)`) — as the ground truth the
tests hold sampled tables against.

It returns a :class:`~repro.core.partitions.PartitionTable` whose
monotonicity invariants are enforced on construction, so a buggy table
fails loudly rather than silently degrading routing.
"""

from __future__ import annotations

from ..errors import SamplingError
from ..ring import Ring
from ..types import NodeId
from .partitions import PartitionTable

__all__ = ["oracle_partitions"]


def oracle_partitions(ring: Ring, node_id: NodeId, k: int) -> PartitionTable:
    """Exact recursive-median partitions for ``node_id``.

    ``k`` caps the partition count; fewer result when the population runs
    out (each level must keep at least one peer on the near side).
    """
    origin = ring.position(node_id)
    live = ring.live_count
    population = live - 1 if ring.is_alive(node_id) else live
    if population < 1:
        raise SamplingError(f"node {node_id} sees an empty population")
    far_end = ring.position(ring.predecessor(node_id, live_only=True))

    medians: list[float] = []
    remaining = population
    for __ in range(k - 1):
        half = remaining // 2
        if half < 1:
            break
        # The peer at clockwise rank `half` splits the remaining near-side
        # population; everything beyond it joins the current partition.
        medians.append(ring.position_at_cw_rank(origin, half, live_only=True))
        remaining = half
    return PartitionTable(origin=origin, far_end=far_end, medians=tuple(medians))

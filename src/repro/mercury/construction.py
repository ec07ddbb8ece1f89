"""Mercury's link selection (Bharambe, Agrawal & Seshan, SIGCOMM'04).

Mercury builds small-world long links the histogram way:

1. each peer samples the network uniformly (random walks; we draw the
   walk outcomes directly) and builds an **equi-width histogram** of
   peer positions — its estimate of the node-density function;
2. per outgoing slot it draws a harmonic rank distance: with ``n``
   peers, pick ``x`` uniform in ``[0, 1]`` and use the normalized rank
   fraction ``n**(x - 1)`` — the continuous ``1/d`` distribution on
   ``[1/n, 1]`` that Kleinberg-optimal routing needs;
3. it converts that rank fraction into a key via its histogram's
   inverse CDF and links to the peer *responsible for that key*;
4. the target accepts only below its ``rho_max_in`` — same acceptance
   rule as Oscar, but with a **single candidate per draw** (Mercury has
   no power-of-two balancer; the draw targets exactly one owner).

Two faithful-to-the-paper consequences reproduce the published gaps:

* under skewed key distributions the equi-width histogram misestimates
  the rank->key mapping, so link rank distances deviate from harmonic
  and search cost degrades (the [8] comparison);
* draws concentrate on the owners of mass-heavy histogram regions, so
  their in-caps exhaust and further draws are refused — exploited
  degree volume stalls (the 61%-vs-85% claim in §3).

We hand Mercury the *true* network size ``n`` for its harmonic draws
(deployed Mercury estimates it from samples); this is strictly generous
to the baseline and keeps the comparison about the histogram, which is
the mechanism under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..config import MercuryConfig
from ..ring import Ring
from ..sampling import NodeDensityHistogram
from ..types import NodeId
from .node import MercuryNode

if TYPE_CHECKING:  # pragma: no cover
    from .overlay import MercuryOverlay

__all__ = ["build_histogram", "harmonic_rank_fraction", "acquire_links", "rewire_all"]


def build_histogram(
    ring: Ring,
    config: MercuryConfig,
    rng: np.random.Generator,
) -> NodeDensityHistogram:
    """One peer's histogram from ``sample_size`` uniform peer positions."""
    ids = ring.ids_array(live_only=True)
    picks = ids[rng.integers(0, ids.size, size=config.sample_size)]
    positions = np.array([ring.position(int(i)) for i in picks], dtype=float)
    return NodeDensityHistogram.from_samples(positions, config.histogram_buckets)


def harmonic_rank_fraction(rng: np.random.Generator, n: int) -> float:
    """Draw a normalized rank distance with density ``∝ 1/d`` on ``[1/n, 1]``.

    ``x ~ U[0, 1]`` mapped through ``n**(x - 1)``: the inverse-CDF of the
    harmonic distribution Kleinberg-optimal rings need.
    """
    if n < 2:
        raise ValueError(f"harmonic draw needs n >= 2, got {n}")
    return float(n ** (rng.random() - 1.0))


def acquire_links(
    ring: Ring,
    nodes: dict[NodeId, MercuryNode],
    node: MercuryNode,
    config: MercuryConfig,
    rng: np.random.Generator,
) -> int:
    """Fill ``node``'s outgoing slots; returns links placed.

    Requires ``node.histogram`` to be set. Single candidate per draw,
    ``config.link_retries`` redraws per slot, duplicates and self are
    refused draws (a peer will not hold two links to one neighbor).
    """
    histogram = node.histogram
    if histogram is None:
        raise ValueError(f"node {node.node_id} has no histogram yet")
    n = ring.live_count
    placed = 0
    existing = set(node.out_links)
    while len(node.out_links) < node.rho_max_out:
        got_one = False
        for __ in range(config.link_retries + 1):
            if n < 2:
                break
            fraction = harmonic_rank_fraction(rng, n)
            target_key = histogram.key_at_cw_fraction(node.position, fraction)
            candidate_id = ring.successor_of_key(target_key, live_only=True)
            if candidate_id == node.node_id or candidate_id in existing:
                continue
            candidate = nodes[candidate_id]
            if not candidate.can_accept:
                continue
            candidate.accept_in_link()
            node.out_links.append(candidate_id)
            existing.add(candidate_id)
            placed += 1
            got_one = True
            break
        if not got_one:
            break
    return placed


def rewire_all(overlay: "MercuryOverlay", rng: np.random.Generator) -> int:
    """Global rewiring round (same epoch structure as Oscar's).

    Histograms are rebuilt against the current population, links dropped
    and re-acquired in a random peer order. Returns total links placed.
    """
    nodes = overlay.nodes
    live_ids = overlay.ring.node_ids(live_only=True)

    for node_id in live_ids:
        node = nodes[node_id]
        node.reset_links()
        node.in_degree = 0

    for node_id in live_ids:
        node = nodes[node_id]
        node.histogram = build_histogram(overlay.ring, overlay.config, rng)
        node.samples_spent += overlay.config.sample_size

    order = np.array(live_ids, dtype=np.int64)
    rng.shuffle(order)
    total = 0
    for node_id in order:
        total += acquire_links(overlay.ring, nodes, nodes[int(node_id)], overlay.config, rng)
    return total

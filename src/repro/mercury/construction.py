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
from ..protocol.decisions import accepts_link
from ..ring import Ring
from ..sampling import NodeDensityHistogram

if TYPE_CHECKING:  # pragma: no cover
    from ..core.soa import SubstrateState
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


def _store_histogram(
    state: "SubstrateState", slot: int, histogram: NodeDensityHistogram | None
) -> None:
    """Write ``histogram``'s cumulative vector into ``slot``'s
    ``hist_cdf`` row, ``nan`` past its end (``None`` clears the row)."""
    cumulative = np.empty(0) if histogram is None else histogram.cumulative
    state.ensure_width("hist_cdf", cumulative.size)
    state.hist_cdf[slot] = np.nan
    state.hist_cdf[slot, : cumulative.size] = cumulative


def _read_histogram(state: "SubstrateState", slot: int) -> NodeDensityHistogram | None:
    """The histogram ``slot``'s ``hist_cdf`` row holds (a read-only view
    of the row), or ``None`` for an all-``nan`` row."""
    row = state.hist_cdf[slot]
    cumulative = row[: row.size - int(np.isnan(row).sum())]
    if cumulative.size == 0:
        return None
    cumulative.flags.writeable = False
    return NodeDensityHistogram(cumulative=cumulative)


def acquire_links(
    ring: Ring,
    slot: int,
    config: MercuryConfig,
    rng: np.random.Generator,
) -> int:
    """Fill the outgoing slots of the peer at ``slot``; returns links placed.

    Requires the peer's histogram to be stored. Single candidate per
    draw, ``config.link_retries`` redraws per slot, duplicates and self
    are refused draws (a peer will not hold two links to one neighbor).
    """
    state = ring.state
    node_id = int(state.node_id[slot])
    histogram = _read_histogram(state, slot)
    if histogram is None:
        raise ValueError(f"node {node_id} has no histogram yet")
    position = float(state.pos[slot])
    n = ring.live_count
    links = state.out_links[slot, : state.out_count[slot]].tolist()
    placed = 0
    while len(links) < state.cap_out[slot]:
        got_one = False
        for __ in range(config.link_retries + 1):
            if n < 2:
                break
            fraction = harmonic_rank_fraction(rng, n)
            target_key = histogram.key_at_cw_fraction(position, fraction)
            candidate_id = ring.successor_of_key(target_key, live_only=True)
            if candidate_id == node_id or candidate_id in links:
                continue
            candidate = state.slot_of(candidate_id)
            if not accepts_link(int(state.in_deg[candidate]), int(state.cap_in[candidate])):
                continue
            state.in_deg[candidate] += 1
            links.append(candidate_id)
            placed += 1
            got_one = True
            break
        if not got_one:
            break
    state.set_links(slot, links)
    return placed


def rewire_all(overlay: "MercuryOverlay", rng: np.random.Generator) -> int:
    """Global rewiring round (same epoch structure as Oscar's).

    Histograms are rebuilt against the current population, links dropped
    and re-acquired in a random peer order. Returns total links placed.
    """
    state, ring, config = overlay.state, overlay.ring, overlay.config
    slots = ring.slots_array(live_only=True).astype(np.int64)
    state.clear_links(slots)
    state.in_deg[slots] = 0
    for slot in slots:
        _store_histogram(state, slot, build_histogram(ring, config, rng))
    state.samples_spent[slots] += config.sample_size
    rng.shuffle(slots)  # an int64 copy: the draw order of a shuffled id list
    return sum(acquire_links(ring, int(slot), config, rng) for slot in slots)

"""Heterogeneous peer capacities: measuring and planning degree budgets.

Run:
    python examples/heterogeneous_capacity_planning.py

The paper's core heterogeneity claim: peers choose their own in/out link
budgets (from bandwidth constraints) and Oscar adapts — search stays
fast and every peer contributes *at most* what it declared. This example
builds a network under the "realistic" spiky cap distribution of Figure
1(a), verifies the cap contract, reports the relative degree load curve
of Figure 1(b), and uses the small-world theory helpers to answer the
capacity-planning question a deployer would ask: "how many links do I
need for a target lookup latency?"
"""

from __future__ import annotations

import numpy as np

from repro import BatchQueryEngine, OscarConfig, OscarOverlay
from repro.degree import SpikyDegreeDistribution
from repro.metrics import load_gini, relative_degree_load, volume_exploitation
from repro.rng import split
from repro.smallworld import min_long_links_for_cost
from repro.workloads import GnutellaLikeDistribution

N_PEERS = 500
SEED = 23


def main() -> None:
    caps = SpikyDegreeDistribution()  # spikes at client defaults, mean 27
    print("cap distribution:", caps)
    print(f"  support {caps.support()}, spikes at {caps.spikes}")

    overlay = OscarOverlay(OscarConfig(), seed=SEED)
    overlay.grow(N_PEERS, GnutellaLikeDistribution(), caps)
    overlay.rewire()

    degrees = overlay.in_degree_array()
    limits = overlay.in_cap_array()

    # --- the cap contract ------------------------------------------------
    # No peer is ever pushed past what it was willing to contribute.
    assert np.all(degrees <= limits), "cap contract violated"
    print(f"\ncap contract holds for all {len(overlay)} peers "
          f"(max load {int(degrees.max())} links, largest cap {int(limits.max())})")

    # --- Figure 1(b)-style load report ------------------------------------
    ratios = relative_degree_load(degrees, limits)
    volume = volume_exploitation(degrees, limits)
    deciles = np.percentile(ratios, [10, 50, 90])
    print("\nrelative degree load (actual / available in-degree):")
    print(f"  p10 {deciles[0]:.2f}   median {deciles[1]:.2f}   p90 {deciles[2]:.2f}")
    print(f"  load gini: {load_gini(ratios):.3f} (lower = more even)")
    print(f"  exploited degree volume: {volume:.1%} (paper: ~85% at 10k peers)")

    # --- big peers carry more, proportionally ------------------------------
    big = degrees[limits >= np.percentile(limits, 80)]
    small = degrees[limits <= np.percentile(limits, 20)]
    print(f"\nhigh-cap peers absorb {big.mean():.1f} links on average, "
          f"low-cap peers {small.mean():.1f}")

    # --- search performance under heterogeneity ---------------------------
    stats = BatchQueryEngine(overlay).measure(split(SEED, "queries"), n_queries=300)
    print(f"\nsearch: mean {stats.mean_cost:.2f} msgs, p95 {stats.p95_cost:.0f}, "
          f"success {stats.success_rate:.1%}")

    # --- capacity planning --------------------------------------------------
    print("\ncapacity planning (links needed per peer for a target cost):")
    for target in (20.0, 10.0, 5.0):
        needed = min_long_links_for_cost(N_PEERS, target)
        print(f"  target {target:4.1f} msgs -> >= {needed} long links per peer")


if __name__ == "__main__":
    main()

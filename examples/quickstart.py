"""Quickstart: build an Oscar overlay, route lookups, read the stats.

Run:
    python examples/quickstart.py

Builds a 500-peer Oscar network whose peer keys follow a heavily skewed
(Gnutella-like) distribution, with heterogeneous per-peer connection
budgets, then routes 200 random lookups and prints the cost statistics
the paper's evaluation is built on.
"""

from __future__ import annotations

from repro import BatchQueryEngine, OscarConfig, OscarOverlay
from repro.degree import SteppedDegrees
from repro.metrics import volume_exploitation
from repro.rng import split
from repro.smallworld import expected_greedy_cost, worst_case_greedy_cost
from repro.workloads import GnutellaLikeDistribution

N_PEERS = 500
SEED = 2007


def main() -> None:
    # 1. An overlay is configured once; every stochastic component then
    #    derives its own labelled random stream from the seed.
    overlay = OscarOverlay(OscarConfig(sample_size=16), seed=SEED)

    # 2. Grow the network: peer keys from a multifractal cascade (the
    #    Gnutella-trace stand-in), per-peer in/out caps from the paper's
    #    "stepped" menu {19, 23, 27, 39} (mean 27).
    keys = GnutellaLikeDistribution()
    caps = SteppedDegrees()
    print(f"growing to {N_PEERS} peers (key skew gini ~{keys.skew_gini(split(SEED, 'probe')):.2f}) ...")
    overlay.grow(N_PEERS, keys, caps)

    # 3. One global rewiring round: every peer re-estimates its
    #    recursive-median partitions by sampling and re-acquires its
    #    long-range links under the capacity caps.
    stats = overlay.rewire()
    print(f"rewired: {stats.links_placed} long links placed, "
          f"{stats.slots_given_up} slots given up")

    # 4. Route a single lookup, with the full path recorded.
    source = overlay.random_live_node(split(SEED, "demo"))
    result = overlay.route(source, target_key=0.25, record_path=True)
    print(f"\nlookup key=0.25 from peer {source}: "
          f"{result.hops} hops via {list(result.path)}")

    # 5. Measure the paper's metric: average search cost of random queries.
    batch = BatchQueryEngine(overlay).measure(split(SEED, "queries"), n_queries=200)
    volume = volume_exploitation(overlay.in_degree_array(), overlay.in_cap_array())

    print("\n=== network summary ===")
    print(f"peers:                  {len(overlay)}")
    print(f"mean search cost:       {batch.mean_cost:.2f} messages")
    print(f"p95 search cost:        {batch.p95_cost:.0f}")
    print(f"success rate:           {batch.success_rate:.1%}")
    print(f"degree volume used:     {volume:.1%}")
    print(f"theory expectation:     ~{expected_greedy_cost(N_PEERS, 27):.1f}")
    print(f"theory worst case:      {worst_case_greedy_cost(N_PEERS):.1f}")

    assert batch.success_rate == 1.0, "every lookup must reach its owner"


if __name__ == "__main__":
    main()

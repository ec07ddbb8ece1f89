"""Oscar vs Mercury: why recursive medians beat equi-width histograms.

Run:
    python examples/mercury_comparison.py

Builds Oscar and Mercury networks of the same size, same constant caps,
same skewed key distribution, and compares the three quantities the
paper (and its predecessor [8]) report:

* mean search cost under skew,
* exploited degree volume (paper: ~85% vs ~61% at 10,000 peers),
* harmonic divergence of realized link ranks — the navigability score
  explaining *why* Mercury falls behind: its histogram mistranslates
  rank distances into keys under multifractal skew.

A uniform-keys Mercury control shows the baseline is faithful: when its
homogeneity assumption holds, it routes just as well.
"""

from __future__ import annotations

from repro import BatchQueryEngine, MercuryConfig, MercuryOverlay, OscarConfig, OscarOverlay
from repro.degree import ConstantDegrees
from repro.metrics import volume_exploitation
from repro.rng import split
from repro.smallworld import harmonic_divergence, link_rank_distribution
from repro.workloads import GnutellaLikeDistribution, UniformKeys

N_PEERS = 400
SEED = 47


def build(kind: str, keys) -> OscarOverlay | MercuryOverlay:
    if kind == "oscar":
        overlay: OscarOverlay | MercuryOverlay = OscarOverlay(OscarConfig(), seed=SEED)
    else:
        overlay = MercuryOverlay(MercuryConfig(), seed=SEED)
    overlay.grow(N_PEERS, keys, ConstantDegrees(16))
    overlay.rewire()
    return overlay


def report(label: str, overlay) -> dict[str, float]:
    stats = BatchQueryEngine(overlay).measure(split(SEED, "q", label), n_queries=300)
    volume = volume_exploitation(overlay.in_degree_array(), overlay.in_cap_array())
    state = overlay.state  # one column per field, one row (slot) per peer
    links = [
        (int(state.node_id[slot]), target)
        for slot in overlay.ring.slots_array(live_only=True)
        for target in state.out_links[slot, : state.out_count[slot]].tolist()
    ]
    divergence = harmonic_divergence(
        link_rank_distribution(overlay.ring, links), overlay.ring.live_count
    )
    print(f"  {label:28s} cost {stats.mean_cost:6.2f}   volume {volume:6.1%}   "
          f"divergence {divergence:.3f}   success {stats.success_rate:.0%}")
    return {"cost": stats.mean_cost, "volume": volume, "divergence": divergence}


def main() -> None:
    skewed = GnutellaLikeDistribution()
    print(f"{N_PEERS} peers, constant caps of 16, "
          f"skewed keys (gini ~{skewed.skew_gini(split(SEED, 'probe')):.2f})\n")
    print(f"  {'system':28s} {'search':>10s}   {'degree':>8s}   {'harmonic':>9s}")

    oscar = report("oscar (skewed keys)", build("oscar", skewed))
    mercury = report("mercury (skewed keys)", build("mercury", skewed))
    control = report("mercury (uniform keys)", build("mercury", UniformKeys()))

    print("\nfindings:")
    ratio = oscar["volume"] / mercury["volume"]
    print(f"  * Oscar exploits {ratio:.2f}x Mercury's degree volume under skew "
          f"(paper: 85% vs 61% = 1.39x at 10k peers)")
    print(f"  * Oscar's link ranks are {mercury['divergence'] / oscar['divergence']:.1f}x "
          f"closer to the harmonic ideal")
    print(f"  * on uniform keys Mercury recovers (cost {control['cost']:.2f} "
          f"vs {mercury['cost']:.2f} under skew): the baseline is faithful, "
          f"its histogram is simply the wrong learner for skewed data")

    assert oscar["volume"] > mercury["volume"]
    assert oscar["divergence"] < mercury["divergence"]


if __name__ == "__main__":
    main()

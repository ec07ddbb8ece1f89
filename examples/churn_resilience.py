"""Churn resilience: crash waves, degraded routing, data recovery.

Run:
    python examples/churn_resilience.py

Reproduces the paper's Figure 2 scenario as an application would see it:
a third of the peers crash at once; the ring self-stabilizes (Chord-style
repair) while long-range links dangle; lookups keep working through the
probing/backtracking router at a moderate cost premium; stored data is
re-homed to the new responsible peers; finally the crashed peers return
and the network heals.
"""

from __future__ import annotations

import numpy as np

from repro import BatchQueryEngine, OscarConfig, OscarOverlay
from repro.degree import ConstantDegrees
from repro.engine import ServeEngine
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.rng import split
from repro.ring import verify
from repro.workloads import GnutellaLikeDistribution

N_PEERS = 400
N_ITEMS = 1000
REPLICAS = 8  # a successor list of ~log2(N) peers: what outlives a 33% wave
SEED = 31


def cost_report(engine: BatchQueryEngine, label: str, round_id: str) -> float:
    stats = engine.measure(split(SEED, "queries", round_id), n_queries=200)
    print(f"  {label:28s} mean {stats.mean_cost:6.2f} msgs "
          f"(wasted {stats.mean_wasted:5.2f}), success {stats.success_rate:.1%}")
    assert stats.success_rate == 1.0
    return stats.mean_cost


def crash_wave(view: OracleView, overlay: OscarOverlay, fraction: float, seed: int) -> list[int]:
    """Crash ``fraction`` of the live peers at once, then let the ring
    self-stabilize; long-range links to the victims dangle."""
    victims = view.crash_fraction(split(seed, "churn-victims", int(fraction * 1_000_000)), fraction)
    overlay.repair_ring()
    return victims


def main() -> None:
    overlay = OscarOverlay(OscarConfig(), seed=SEED)
    overlay.grow(N_PEERS, GnutellaLikeDistribution(), ConstantDegrees(16))
    overlay.rewire()
    view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=REPLICAS)
    item_keys = GnutellaLikeDistribution().sample(split(SEED, "items"), N_ITEMS)
    store.seed_items(item_keys, view)
    serve = ServeEngine(overlay, store, view)
    engine = BatchQueryEngine(overlay)
    print(f"built {N_PEERS}-peer network holding {store.item_count} items\n")

    print("search cost through the churn lifecycle:")
    healthy = cost_report(engine, "healthy network", round_id="healthy")

    # --- the crash waves of Figure 2 --------------------------------------
    for fraction in (0.10, 0.33):
        victims = crash_wave(view, overlay, fraction, SEED)
        degraded = cost_report(
            engine, f"after {fraction:.0%} crash wave", round_id=f"crash-{fraction}"
        )
        assert degraded >= healthy * 0.9, "churn should not make routing cheaper"
        view.revive(victims)
        overlay.repair_ring()

    # --- data recovery at 33% ----------------------------------------------
    victims = crash_wave(view, overlay, 0.33, SEED + 1)
    owners_before = store.holders[:, 0]
    repair = store.rereplicate(view, epoch=1)
    assert repair.items_lost == 0, "some replica of every item must outlive the wave"
    moved = int((store.holders[:, 0] != owners_before).sum())
    print(f"\n33% of peers crashed; {moved} items re-homed to live successors")
    reader = overlay.random_live_node(split(SEED, "reader"))
    found = int(serve.serve_batch(np.full(100, reader), item_keys[:100]).success.sum())
    print(f"post-crash availability: {found}/100 sample items readable")
    assert found == 100, "successor takeover must preserve every item"

    # --- healing --------------------------------------------------------------
    view.revive(victims)
    overlay.repair_ring()
    verify(overlay.ring, overlay.pointers)
    overlay.rewire()  # the periodic rewiring round re-points long links
    healed = cost_report(engine, "revived + rewired", round_id="healed")
    assert healed <= healthy * 1.5
    print("\nnetwork healed: ring invariants verified, cost back to baseline")


if __name__ == "__main__":
    main()

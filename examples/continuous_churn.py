"""Continuous churn on the epoch engine (future-work extension).

Run:
    python examples/continuous_churn.py

The paper evaluates single crash waves; deployed systems see a steady
drip of departures and arrivals with maintenance running on a timer.
``SteadyStateChurnEngine`` simulates exactly that in lock-step epochs:
sessions expire and peers crash, a Poisson cohort joins, ring pointers
re-stabilize at once, and only every ``REPAIR_EVERY`` epochs are dead
peers compacted and long links rewired. Routed probes after every epoch
show what users would see — and the stale-link count traces a sawtooth
whose period is the repair cadence.
"""

from __future__ import annotations

from repro import OscarConfig, OscarOverlay
from repro.churn import ExponentialSessions
from repro.degree import ConstantDegrees
from repro.engine import SteadyStateChurnEngine
from repro.workloads import GnutellaLikeDistribution

N_PEERS = 300
EPOCHS = 20
HALF_LIFE = 12.0  # epochs until half of a cohort has left
REPAIR_EVERY = 5
SEED = 59


def main() -> None:
    keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(16)
    overlay = OscarOverlay(OscarConfig(), seed=SEED)
    overlay.grow(N_PEERS, keys, degrees)
    overlay.rewire()

    sessions = ExponentialSessions(HALF_LIFE)
    engine = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        sessions,
        arrival_rate=N_PEERS / sessions.mean,  # Little's law: hold the size
        repair_every=REPAIR_EVERY,
        n_probes=120,
        seed=SEED,
    )
    history = engine.run(EPOCHS)

    print(f"simulated {EPOCHS} epochs of steady churn (session half-life "
          f"{HALF_LIFE:.0f} epochs, link repair every {REPAIR_EVERY})\n")
    print(f"  {'epoch':>5s} {'live':>5s} {'joined':>7s} {'left':>5s} "
          f"{'stale links':>12s} {'mean cost':>10s} {'success':>8s}")
    for stats in history:
        print(f"  {stats.epoch:5d} {stats.live:5d} {stats.arrivals:7d} "
              f"{stats.departures:5d} {stats.stale_links:12d} "
              f"{stats.probes.mean_cost:10.2f} {stats.probes.success_rate:8.1%}"
              f"{'  <- repair' if stats.link_repair else ''}")

    left = sum(stats.departures for stats in history)
    compacted = sum(stats.compacted for stats in history)
    print(f"\n{left} peers left over the run ({left / N_PEERS:.0%} of the "
          f"starting population); {EPOCHS // REPAIR_EVERY} repairs compacted "
          f"{compacted} of them out of the ring")

    # The network must remain navigable throughout, despite routing
    # over stale long links between repairs.
    assert min(s.probes.success_rate for s in history) == 1.0, (
        "navigability lost under continuous churn"
    )

    # The sawtooth: damage peaks on the repair epoch (counted before the
    # repair runs) and restarts from one epoch's worth right after it.
    stale = {stats.epoch: stats.stale_links for stats in history}
    for repair in range(REPAIR_EVERY, EPOCHS, REPAIR_EVERY):
        assert stale[repair + 1] < stale[repair], "repair did not clear stale links"
    peak, after = stale[REPAIR_EVERY], stale[REPAIR_EVERY + 1]
    print(f"\nstale long links climbed to {peak} by epoch {REPAIR_EVERY}, fell to "
          f"{after} right after the repair and climbed again — the periodic "
          f"rewiring round of the paper's growth harness is what reclaims them.")


if __name__ == "__main__":
    main()

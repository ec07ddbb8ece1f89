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
    engine.run(EPOCHS)
    # Every epoch wrote one row into the overlay's registry: read the
    # run back as one table of columns.
    t = overlay.state.obs.table("churn")

    print(f"simulated {EPOCHS} epochs of steady churn (session half-life "
          f"{HALF_LIFE:.0f} epochs, link repair every {REPAIR_EVERY})\n")
    print(f"  {'epoch':>5s} {'live':>5s} {'joined':>7s} {'left':>5s} "
          f"{'stale links':>12s} {'mean cost':>10s} {'success':>8s}")
    for epoch, live, joined, left, stale, cost, success, repair in zip(
        *(t[name].tolist() for name in (
            "epoch", "live", "arrivals", "departures", "stale_links",
            "mean_cost", "success_rate", "link_repair",
        ))
    ):
        print(f"  {epoch:5d} {live:5d} {joined:7d} {left:5d} {stale:12d} "
              f"{cost:10.2f} {success:8.1%}{'  <- repair' if repair else ''}")

    left = int(t["departures"].sum())
    compacted = int(t["compacted"].sum())
    print(f"\n{left} peers left over the run ({left / N_PEERS:.0%} of the "
          f"starting population); {EPOCHS // REPAIR_EVERY} repairs compacted "
          f"{compacted} of them out of the ring")

    # The network must remain navigable throughout, despite routing
    # over stale long links between repairs.
    assert t["success_rate"].min() == 1.0, "navigability lost under continuous churn"

    # The sawtooth: damage peaks on the repair epoch (counted before the
    # repair runs) and restarts from one epoch's worth right after it.
    stale = dict(zip(t["epoch"].tolist(), t["stale_links"].tolist()))
    for repair in range(REPAIR_EVERY, EPOCHS, REPAIR_EVERY):
        assert stale[repair + 1] < stale[repair], "repair did not clear stale links"
    peak, after = stale[REPAIR_EVERY], stale[REPAIR_EVERY + 1]
    print(f"\nstale long links climbed to {peak} by epoch {REPAIR_EVERY}, fell to "
          f"{after} right after the repair and climbed again — the periodic "
          f"rewiring round of the paper's growth harness is what reclaims them.")


if __name__ == "__main__":
    main()

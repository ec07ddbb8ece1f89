"""Steady-state churn extension: surviving continuous turnover.

The paper's Figure 2 measures one-shot crash waves; its heterogeneity
argument, though, is about *long-running* operation in wide-area
environments where membership turns over continuously. This spec runs
the :class:`~repro.engine.churn.SteadyStateChurnEngine` — lock-step
epochs of Poisson arrivals, session-expiry departures, periodic repair
and routed probes — and records the resulting time series: success
rate, mean search cost, stale-link count and population size per epoch,
plus the wall time each epoch took (what ``scripts/bench_ci.py``
snapshots into ``BENCH_churn.json``).

The arrival rate is derived from the session distribution so the
population holds steady around the configured size (Little's law:
``N = arrival_rate x mean session``); the registered ``churn-grid``
sweep crosses churn half-life x substrate x cap distribution x repair
policy — the grid the docs call the steady-churn scenario family.
``repair="full"`` (the default) is the paper's periodic rewire of every
peer; ``"refill"`` replaces only what churn broke.
"""

from __future__ import annotations

from ..churn.sessions import SESSION_DISTRIBUTIONS
from .base import ExperimentResult
from .growth import build_churn_bed
from .runner import Stopwatch
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["run"]


@experiment(
    "steady-churn",
    title="Steady-state churn: routing under continuous turnover",
    tags=("extension",),
    help={
        "substrate": "overlay kind: oscar | chord | mercury",
        "size": "steady-state population target (scaled by --scale)",
        "epochs": "lock-step churn epochs to simulate",
        "half_life": "median session length in epochs",
        "sessions": "session-time shape: exponential | pareto | trace",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
        "repair_every": "epochs between link repairs (1 = every epoch)",
        "repair": "link repair policy: full (the paper's rewire) | refill",
        "n_queries": "routed probes per epoch (0 = one per live peer)",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    size: int = 10_000,
    epochs: int = 20,
    half_life: float = 8.0,
    sessions: str = "exponential",
    keys: str = "gnutella",
    degrees: str = "constant",
    repair_every: int = 4,
    repair: str = "full",
    n_queries: int = 256,
) -> ExperimentResult:
    """Epoch time series of an overlay under steady-state churn."""
    bed = build_churn_bed(
        scale=scale,
        seed=seed,
        substrate=substrate,
        size=size,
        epochs=epochs,
        half_life=half_life,
        sessions=sessions,
        keys=keys,
        degrees=degrees,
        repair=repair,
    )
    engine = bed.engine(repair_every=repair_every, n_probes=n_queries)

    success: list[tuple[float, float]] = []
    cost: list[tuple[float, float]] = []
    stale: list[tuple[float, float]] = []
    live: list[tuple[float, float]] = []
    epoch_seconds: list[tuple[float, float]] = []
    given_up: list[tuple[float, float]] = []
    samples: list[tuple[float, float]] = []
    churn_watch = Stopwatch()
    for __ in range(epochs):
        epoch_watch = Stopwatch()
        stats = engine.run_epoch()
        elapsed = epoch_watch.lap()
        x = float(stats.epoch)
        success.append((x, stats.probes.success_rate))
        cost.append((x, stats.probes.mean_cost))
        stale.append((x, float(stats.stale_links)))
        live.append((x, float(stats.live)))
        epoch_seconds.append((x, elapsed))
        if stats.repair is not None:
            given_up.append((x, float(stats.repair.slots_given_up)))
            samples.append((x, float(stats.repair_samples)))
    churn_seconds = churn_watch.lap()

    history = engine.history
    return ExperimentResult(
        experiment_id="steady-churn",
        title="Steady-state churn: routing under continuous turnover",
        series={
            "success rate": success,
            "mean search cost": cost,
            "stale links": stale,
            "live peers": live,
            "epoch seconds": epoch_seconds,
            "slots given up per repair": given_up,
            "samples spent per repair": samples,
        },
        scalars={
            "mean_success_rate": sum(s.probes.success_rate for s in history) / len(history),
            "final_success_rate": history[-1].probes.success_rate,
            "mean_cost": sum(s.probes.mean_cost for s in history) / len(history),
            "max_stale_links": float(max(s.stale_links for s in history)),
            "final_live": float(history[-1].live),
            "total_arrivals": float(sum(s.arrivals for s in history)),
            "total_departures": float(sum(s.departures for s in history)),
            "build_seconds": bed.build_seconds,
            "churn_seconds": churn_seconds,
            "epochs_per_second": epochs / max(churn_seconds, 1e-9),
        },
        metadata={
            **bed.metadata,
            "repair_every": repair_every,
            "n_queries": n_queries,
            "session_distributions": sorted(SESSION_DISTRIBUTIONS),
        },
    )


# The steady-churn scenario family: churn speed x substrate x cap
# distribution x repair policy, each point one full epoch time series.
# `repro sweep churn-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="churn-grid",
        spec_id="steady-churn",
        title="Churn half-life x substrate x cap distribution x repair policy",
        axes=(
            ("half_life", (2.0, 8.0, 32.0)),
            ("substrate", ("oscar", "chord", "mercury")),
            ("degrees", ("constant", "realistic")),
            ("repair", ("full", "refill")),
        ),
    )
)

"""Serve-churn extension: the data plane load-tested under turnover.

The paper's title promises a *data-oriented* overlay; this spec finally
serves data from one. A :class:`~repro.index.replication.ReplicatedStore`
publishes one item per ~peer at k-fold successor-list replication, a
:class:`~repro.engine.churn.SteadyStateChurnEngine` churns the ring
underneath (re-replicating on its repair epochs through the installed
membership view), and a :class:`~repro.engine.serve.ServeEngine` fields
Zipf-skewed request batches — with a mid-run flash crowd — through its
believed-membership router and version-stamped array result cache.

Each epoch serves the same request batch **twice**: a *cold* pass right
after churn moved the serve version (nearly every request routes — the
uncached throughput) and a *warm* pass at the unchanged version (nearly
every request hits the cache — the cached throughput). The series that
fall out are the serving story: queries/sec cold vs warm (their ratio
is the ``cache_speedup`` scalar), hit rate, items lost, items below
``k`` live replicas, phantom replicas, and stale serves — the last
three zero under ``membership="oracle"`` and the direct price of
detection lag under ``membership="probe"``.

``scripts/bench_ci.py`` snapshots this spec into ``BENCH_serve.json``;
the ``serve-grid`` sweep crosses replication factor x probe loss x
popularity skew.
"""

from __future__ import annotations

import numpy as np

from ..engine import ServeEngine
from ..errors import ConfigError
from ..index import ReplicatedStore
from ..membership import DetectorConfig, OracleView, ProbeView
from ..rng import split
from ..workloads import FlashCrowdSchedule, ServingWorkload
from .base import ExperimentResult
from .growth import build_churn_bed
from .runner import Stopwatch
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["run"]


@experiment(
    "serve-churn",
    title="Data plane under churn: replication, caching, hot keys",
    tags=("extension",),
    help={
        "substrate": "overlay kind: oscar | chord | mercury",
        "size": "steady-state population target (scaled by --scale)",
        "epochs": "lock-step churn epochs to simulate",
        "half_life": "median session length in epochs",
        "sessions": "session-time shape: exponential | pareto | trace",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
        "repair_every": "epochs between repairs + re-replication passes",
        "repair": "link repair policy: full (the paper's rewire) | refill",
        "n_queries": "serve requests per epoch (0 = one per live peer)",
        "replicas": "replication factor k (owner + k-1 successors)",
        "items": "catalog size (0 = one item per initial peer)",
        "exponent": "Zipf popularity skew over the catalog",
        "flash_fraction": "request fraction redirected during the flash crowd",
        "membership": "liveness source: oracle | probe",
        "loss": "per-probe loss probability (probe membership only)",
        "cache_size": "LRU result-cache capacity (0 disables caching)",
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
    n_queries: int = 4096,
    replicas: int = 3,
    items: int = 0,
    exponent: float = 0.9,
    flash_fraction: float = 0.8,
    membership: str = "oracle",
    loss: float = 0.05,
    cache_size: int = 1 << 20,
) -> ExperimentResult:
    """Epoch time series of cached serving over a churning, replicated
    catalog (the flash crowd occupies the middle third of the run)."""
    if membership not in ("oracle", "probe"):
        raise ConfigError(f"unknown membership {membership!r}; known: ['oracle', 'probe']")
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
    overlay = bed.overlay

    if membership == "probe":
        view = ProbeView(overlay.ring, DetectorConfig(loss=loss), seed=seed)
    else:
        view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=replicas)
    n_items = bed.size if items == 0 else items
    store.seed_items(split(seed, "serve-items").random(n_items), view)
    engine = bed.engine(repair_every=repair_every, n_probes=0, membership=view, replication=store)
    serve = ServeEngine(overlay, store, view, cache_size=cache_size)
    flash = FlashCrowdSchedule(
        start=max(1, epochs // 3), stop=max(2, 2 * epochs // 3), fraction=flash_fraction
    )
    workload = ServingWorkload(exponent=exponent, flash=flash)

    hit_rate: list[tuple[float, float]] = []
    qps_cold: list[tuple[float, float]] = []
    qps_warm: list[tuple[float, float]] = []
    lost: list[tuple[float, float]] = []
    under_k: list[tuple[float, float]] = []
    phantom: list[tuple[float, float]] = []
    stale: list[tuple[float, float]] = []
    success_rate: list[tuple[float, float]] = []
    serve_watch = Stopwatch()
    for __ in range(epochs):
        stats = engine.run_epoch()
        e = stats.epoch
        x = float(e)
        # Requests originate from peers that truly exist *and* are
        # believed alive (a believed-dead source cannot inject traffic;
        # a truth-dead one does not exist to ask).
        believed = view.live_ids()
        truth = overlay.ring.ids_array(live_only=True)
        pool = believed[np.isin(believed, truth, assume_unique=True)]
        count = overlay.ring.live_count if n_queries == 0 else n_queries
        rng = split(seed, "serve-queries", e)
        sources, targets_keys = workload.generate_arrays(
            pool, store.item_keys, rng, count, epoch=e
        )
        batch_watch = Stopwatch()
        cold = serve.serve_batch(sources, targets_keys)
        cold_seconds = batch_watch.lap()
        warm = serve.serve_batch(sources, targets_keys)
        warm_seconds = batch_watch.lap()
        cold_d, warm_d = cold.as_dict(), warm.as_dict()
        requests = max(1, int(cold_d["requests"]))  # type: ignore[arg-type]
        epoch_lost = sum(
            r.items_lost for r in store.history if r.epoch == e
        )
        hit_rate.append((x, warm_d["cache_hits"] / requests))  # type: ignore[operator]
        qps_cold.append((x, requests / max(cold_seconds, 1e-9)))
        qps_warm.append((x, requests / max(warm_seconds, 1e-9)))
        lost.append((x, float(epoch_lost)))
        under_k.append((x, float(store.under_replicated())))
        phantom.append((x, float(sum(r.phantom_replicas for r in store.history if r.epoch == e))))
        stale.append((x, cold_d["stale_serves"] / requests))  # type: ignore[operator]
        success_rate.append((x, cold_d["successes"] / requests))  # type: ignore[operator]
    serve_seconds = serve_watch.lap()
    qps_cached = float(np.median([y for __, y in qps_warm]))
    qps_uncached = float(np.median([y for __, y in qps_cold]))

    return ExperimentResult(
        experiment_id="serve-churn",
        title="Data plane under churn: replication, caching, hot keys",
        series={
            "cache hit rate (warm)": hit_rate,
            "queries/sec cold": qps_cold,
            "queries/sec warm": qps_warm,
            "items lost": lost,
            "items below k live replicas": under_k,
            "phantom replicas": phantom,
            "stale serve rate": stale,
            "serve success rate (cold)": success_rate,
        },
        scalars={
            "items_lost_total": float(store.items_lost_total),
            "items_final": float(store.item_count),
            "under_k_final": float(store.under_replicated()),
            "phantom_total": float(sum(r.phantom_replicas for r in store.history)),
            "stale_serves": float(serve.stale_serves),
            "hit_rate": serve.result_cache.hit_rate,
            "mean_success_rate": sum(y for __, y in success_rate) / len(success_rate),
            "qps_cached": qps_cached,
            "qps_uncached": qps_uncached,
            "cache_speedup": qps_cached / qps_uncached,
            "final_live": float(engine.history[-1].live),
            "build_seconds": bed.build_seconds,
            "serve_seconds": serve_seconds,
        },
        metadata={
            **bed.metadata,
            "repair_every": repair_every,
            "n_queries": n_queries,
            "replicas": replicas,
            "items": n_items,
            "exponent": exponent,
            "flash_fraction": flash_fraction,
            "membership": membership,
            "loss": loss,
            "cache_size": cache_size,
        },
    )


# The serving scenario family: replication factor x probe loss x
# popularity skew. `repro sweep serve-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="serve-grid",
        spec_id="serve-churn",
        title="Replication factor x probe loss x popularity skew",
        axes=(
            ("replicas", (1, 3, 5)),
            ("membership", ("oracle", "probe")),
            ("exponent", (0.0, 0.9)),
        ),
    )
)
